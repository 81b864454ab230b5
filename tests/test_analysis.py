"""Searches and sweeps: roots, peaks, crossovers, grid evaluation."""

import functools
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
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
    transition_probability,
)
from udwharvest import analysis, cli, closedform
from udwharvest.analysis import SweepGrid

# the benchmark's 50-digit reference, imported by path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


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

    # the identical pair stops harvesting inside the bracket: the ratio of
    # the scales times the non-identical pair's excess is far below the
    # identical pair's rounding, so the crossover is the identical pair's own
    # lmax.  The concurrences at the location lie within ulps of zero, and a
    # note read from them flipped on an ulp's move of the location
    @pytest.mark.parametrize("a, d", [(0.8407, 22.574), (0.840737565299472, 22.577117939346444),
                                      (1.0, 20.0)])
    def test_note_already_zero_where_the_identical_lmax_lies_in_the_bracket(self, a, d):
        res = find_crossover(a, d)
        lo, hi = res.bracket
        assert lo <= find_lmax(a, 0.0).location <= hi
        assert res.note == "identical-pair concurrence already zero here"
        w = 1e-8 * hi
        assert _mp_excess(a, 0.0, lo - w) > 0 > _mp_excess(a, 0.0, hi + w)

    # the identical pair's lmax lies above the bracket, so it still harvests
    # at the crossover; at (27.73, 0.60) both concurrences underflow to 0
    # there, and a note read from them said "already zero"
    @pytest.mark.parametrize("a, d", [(0.5, 0.25), (1.2, 0.6), (3.0, 0.05),
                                      (27.72988100311271, 0.5993845229582027)])
    def test_no_note_where_the_identical_lmax_lies_above_the_bracket(self, a, d):
        res = find_crossover(a, d)
        assert find_lmax(a, 0.0).bracket[0] > res.bracket[1]
        assert res.note == ""
        assert _mp_excess(a, 0.0, res.bracket[1]) > 0

    def test_true_crossover_has_both_positive(self):
        res = find_crossover(0.5, 0.25)
        assert res.note == ""
        assert concurrence_values(0.5, 0.0, res.location, 0.1) > 0
        assert concurrence_values(0.5, 0.25, res.location, 0.1) > 0

    def test_one_closed_form_call_per_step(self, monkeypatch):
        # one scan block for both pairs, one value-and-slope call per pair
        # and Newton step (bisection took 46), the non-identical pair's
        # first, and the final evaluation of both pairs
        calls = _closed_form_calls(monkeypatch)
        res = find_crossover(0.5, 0.25)
        assert res.iterations <= 8
        assert [name for name, _, _ in calls] == (
            ["_x_abs"] + ["_x_abs_slope"] * 2 * res.iterations + ["_ingredients"])
        pairs = [d for name, d, _ in calls if name == "_x_abs_slope"]
        assert pairs == [0.25, 0.0] * res.iterations

    def test_batched_refinement_makes_one_closed_form_call_per_step(self, monkeypatch):
        # the scan's calls carry both pairs along a leading axis of two; the
        # calls over the whole batch are its lockstep Newton steps, two per
        # step (the non-identical pairs', then the identical pairs' at d =
        # 0), and the final evaluation of both pairs
        calls = _closed_form_calls(monkeypatch)
        batch = find_crossover_many([0.5, 0.5, 1.0], [0.25, 0.5, 0.5])
        assert all(np.shape(d)[0] == 2 for name, d, _ in calls if name == "_x_abs")
        whole = [(name, np.shape(d)) for name, d, l in calls if np.shape(l) == (3,)]
        assert whole == ([("_x_abs_slope", (3,)), ("_x_abs_slope", ())] * batch.iterations.max()
                         + [("_ingredients", (2, 3))])

    @pytest.mark.parametrize("coupling", [0.1, 0.3])
    def test_pair_concurrences_are_the_two_separate_calls(self, coupling):
        # one stacked call gives each pair's concurrence_values bit for bit,
        # with X's bracket gathered from one evaluation that also covers the
        # identical pair at a second separation, as the crossover's last step
        a, d = np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 1.5])
        l = np.array([1.0, 1.5, 0.5])
        ds = np.stack([d, np.zeros(3)])
        b_re, b_im = closedform._x_bracket(np.concatenate([ds, ds[1:]]),
                                           np.stack([l, l, 2.0 * l]))[:2]
        unequal, equal = analysis._clamp(analysis._ingredients(
            a, ds, l, coupling, x_bracket=(b_re[:2], b_im[:2]))[3])
        assert (unequal > 0).all() and (equal > 0).all()
        assert np.array_equal(unequal, concurrence_values(a, d, l, coupling))
        assert np.array_equal(equal, concurrence_values(a, 0.0, l, coupling))

    # the difference is positive from the grid's first point l = 0.01, in
    # 50 digits too, so a crossover lies in (0, 0.01]; these rows were
    # reported as NoCrossover
    @pytest.mark.parametrize("a, d", [(0.0, 0.01), (0.0, 1e-3), (1e-4, 1e-2), (3e-3, 1e-3)])
    def test_pair_ahead_from_the_first_scanned_separation(self, a, d):
        res = find_crossover(a, d)
        value = concurrence_values(a, d, 0.01, 0.1) - concurrence_values(a, 0.0, 0.01, 0.1)
        assert res == analysis.SearchResult(0.01, value, (0.0, 0.01), 0, True, _AHEAD)
        assert value > 0 and _mp_difference(a, d, 0.01) > 0

    def test_batched_pairs_ahead_from_the_first_point_match_one_problem_calls(self):
        a = [0.0, 0.5, 0.0, 1e-4, 0.5, 3e-3]
        d = [0.01, 0.25, 1e-3, 1e-2, 0.25, 1e-3]
        bound = [10.0, 10.0, 10.0, 10.0, 1.0, 10.0]
        batch = find_crossover_many(a, d, 0.1, scan_bound=bound)
        rows = [_row(batch, i) for i in range(len(a))]
        assert rows == [_outcome(find_crossover, x, y, 0.1, scan_bound=b)
                        for x, y, b in zip(a, d, bound)]
        assert [r if isinstance(r, str) else r[-1] for r in rows] == [
            _AHEAD, "", _AHEAD, _AHEAD, "NoCrossover", _AHEAD]

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
    d, l): the separation scans call _x_abs, each refinement step
    _x_abs_slope (both take d, l first), and the gap scans, the golden
    steps and the final evaluation _ingredients (which takes a, d, l, and
    its caches by keyword)."""
    calls = []
    for name, skip in (("_x_abs", 0), ("_x_abs_slope", 0), ("_ingredients", 1)):
        def spy(*args, name=name, skip=skip, original=getattr(analysis, name), **kwargs):
            calls.append((name, *args[skip:skip + 2]))
            return original(*args, **kwargs)
        monkeypatch.setattr(analysis, name, spy)
    return calls


def _golden_calls(monkeypatch):
    """Record every (d, value) pair of the gap search's golden section, in
    order."""
    calls = []
    golden = analysis._golden

    def spy(c, lo, hi):
        return golden(lambda d: calls.append((d, c(d))) or calls[-1][1], lo, hi)

    monkeypatch.setattr(analysis, "_golden", spy)
    return calls


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


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
    """A separation search done as a scalar loop over the closed forms on
    the full grid: the scan cell holding the sign change, the root that
    bisection to floating resolution finds in it and its step count, the
    function whose sign changes, the side that is positive, the 50-digit
    function whose sign change the root approximates, the note of a
    bracket, and the public value at a location.  The loops follow the sign of
    the scaled excess (:func:`_scaled_excess`), which the searches decide
    by on every row, and which the public value E S keeps only where it
    does not underflow."""

    cell: tuple
    bisected: float
    bisections: int
    f: Callable
    positive_at_lo: bool
    exact: Callable
    value: Callable
    note: Callable = lambda bracket: ""


def _is_scaled(a, d, coupling):
    """Whether P_A P_B is not a normal double, where the public excess is
    formed from the scaled one as E S."""
    product = transition_probability(a, coupling) * transition_probability(a + d, coupling)
    return product < np.finfo(float).tiny


def _scaled_excess(a, d, l):
    """S = |X|/E - sqrt(P~_A P~_B), E = exp(-(a^2 + b^2)/2), at unit
    coupling, where the searches decide (S scales by the coupling's
    square), per point from the closed forms' scaled pieces, which
    ``TestScaledExcess`` checks against 50 digits."""
    return closedform._x_abs(d, l) - closedform._scaled_gm(a, d, 1.0)


def _crossover_sign(a, d, l):
    """A function with the sign of the concurrence difference C(a, d, l) -
    C(a, 0, l): +-1 from 2 E_u max(0, S_u) > 2 E_i max(0, S_e) with the
    pairs' scaled excesses and the ratio E_u/E_i.  Arrays broadcast."""
    unequal, equal = _scaled_excess(a, d, l), _scaled_excess(a, 0.0, l)
    ratio = np.exp(-d * (2.0 * a + d) / 2.0)
    ahead = (unequal > 0.0) & ((equal <= 0.0) | (ratio * unequal > equal))
    return np.where(ahead, 1.0, -1.0)


def _result(search, *args, **kwargs):
    """A search's result, or the name of what it raised."""
    try:
        return search(*args, **kwargs)
    except (NoHarvestingRegion, BracketingFailure, NoCrossover) as exc:
        return type(exc).__name__


@functools.cache
def _reference(coupling):
    """The 50-digit textbook P, X and excess at ``coupling``, one instance
    per coupling."""
    return reference.Reference(coupling)


def _mp_excess(a, d, l, coupling=0.1):
    """|X| - sqrt(P_A P_B) from the textbook expressions in Erfi and erfc
    at 50 digits, sharing no algebra with the scaled Faddeeva forms.  The
    gaps enter as 50-digit numbers, so that b = a + d is exact, as in the
    scaled forms' E = exp(-(a^2 + b^2)/2)."""
    ref = _reference(coupling)
    return ref.excess(ref.mp.mpf(a), ref.mp.mpf(d), l)


def _assert_exact_sign_change(f, bracket, positive_at_lo, widen=1e-8):
    """The 50-digit function ``f`` changes sign across ``bracket`` widened
    by ``widen`` relative, positive on the low side if ``positive_at_lo``."""
    lo, hi = bracket
    w = widen * hi
    assert (f(lo - w) > 0) == positive_at_lo != (f(hi + w) > 0)


def _step_bound(cell):
    """The steps the refinement may take from a scan cell: bisection's to
    a bracket of 8 ulps of its lower end, plus the slack."""
    lo, hi = cell
    return int(np.ceil(np.log2((hi - lo) / (8.0 * np.spacing(lo))))) + analysis._NEWTON_SLACK


def _assert_refines(got, want, ulps=64):
    """``got`` (a search result or the name of what it raised) refines the
    scalar loop's answer ``want`` (a :class:`_Root` or the name of what it
    raises): the same error, or a bracket inside the loop's scan cell, at
    most 8 ulps wide, that the closed forms certify as a sign change the
    same way round and 50 digits confirm, located within ``ulps`` of
    bisection's root, within the stated step bound, with the value of the
    public closed forms at its location and the loop's note of its
    bracket."""
    if isinstance(want, str):
        assert got == want
        return
    if isinstance(want, tuple):  # the whole outcome, as _as_outcome gives it
        assert got.converged
        assert _as_outcome(got.location, got.value, *got.bracket, got.iterations,
                           got.note) == want
        return
    lo, hi = got.bracket
    assert want.cell[0] <= lo < hi <= want.cell[1]
    assert hi - lo <= 8.0 * np.spacing(lo)
    assert (want.f(lo) > 0.0) == want.positive_at_lo != (want.f(hi) > 0.0)
    _assert_exact_sign_change(want.exact, got.bracket, want.positive_at_lo)
    assert got.location == 0.5 * (lo + hi)
    assert abs(got.location - want.bisected) <= ulps * np.spacing(want.bisected)
    assert got.value == want.value(got.location)
    assert got.note == want.note(got.bracket)
    assert 0 < got.iterations <= _step_bound(want.cell) and got.converged


def _lmax_loop(a, d, coupling, bound=None, step=0.01):
    """find_lmax as a scalar loop over the scaled excess on the full grid
    up to its certified end (:func:`_reference_cut`), with the public
    correlation_excess as its value.  No point at or past the end
    harvests."""
    grid, cut = _reference_cut(a, d, bound, step)

    def value(l):
        return correlation_excess(a, d, l, coupling)

    def f(l):
        return _scaled_excess(a, d, l)

    positive = f(grid) > 0.0
    assert not positive[cut:].any()
    if not positive.any():
        return "NoHarvestingRegion"
    k = int(np.flatnonzero(positive)[-1])
    if k + 1 == grid.size:  # the last point of a capped grid
        return "BracketingFailure"
    cell = float(grid[k]), float(grid[k + 1])
    lo, hi, n = _bisect_loop(f, *cell, True)
    return _Root(cell, 0.5 * (lo + hi), n, f, True, lambda l: _mp_excess(a, d, l, coupling),
                 value)


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


_AHEAD = "non-identical pair ahead from the first scanned separation"


def _crossover_loop(a, d, coupling, bound=None, step=0.01):
    """find_crossover as a scalar loop on the full grid up to its certified
    end (:func:`_reference_cut`) over the sign of the concurrence
    difference 2 E_u max(0, S_u) - 2 E_i max(0, S_e) from the pairs' scaled
    excesses and the ratio E_u/E_i, with the difference of the public
    concurrence_values as its value and a note from the identical pair's
    scaled excess at the bracket's upper end.  Where the difference is
    positive at the grid's first point the result is that point, in the
    bracket (0, point], with no iterations and a note.  The difference is
    positive at no point at or past the end."""

    def value(l):
        return concurrence_values(a, d, l, coupling) - concurrence_values(a, 0.0, l, coupling)

    def g(l):
        return _crossover_sign(a, d, l)

    def note(bracket):
        # whether the identical pair harvests at the bracket's upper end
        harvests = _scaled_excess(a, 0.0, bracket[1]) > 0.0
        return "" if harvests else "identical-pair concurrence already zero here"

    grid, cut = _reference_cut(a, d, bound, step)
    positive = g(grid) > 0.0
    assert not positive[cut:].any()
    if positive[0]:  # ahead from the first point: no refinement
        return _as_outcome(grid[0], value(grid[0]), 0.0, grid[0], 0, _AHEAD)
    transitions = np.flatnonzero(positive[1:] & ~positive[:-1])
    if transitions.size == 0:
        return "NoCrossover"
    k = int(transitions[0]) + 1
    cell = float(grid[k - 1]), float(grid[k])
    lo, hi, n = _bisect_loop(g, *cell, False)
    return _Root(cell, 0.5 * (lo + hi), n, g, False,
                 lambda l: _mp_difference(a, d, l, coupling), value, note)


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

    # scan bound 200: the grid ends at its certified cut far below it; the
    # roots of (0.5, 0.25) and (4, 0) lie in the first block below the cut,
    # and at step 0.001 the root of (0.5, 0.25) lies in the second; bound 15
    # at step 0.003 caps the grid of (1.2, 3.6) below its cut
    @pytest.mark.parametrize("a, d, bound, step", [
        (0.5, 0.25, 200.0, 0.01), (4.0, 0.0, 200.0, 0.01), (1.0, 20.0, 200.0, 0.01),
        (0.2, 0.0, 200.0, 0.01), (0.5, 0.25, None, 0.001), (1.2, 3.6, 15.0, 0.003)])
    def test_find_lmax_where_the_scan_skips_and_stops_early(self, a, d, bound, step):
        got = _result(find_lmax, a, d, scan_bound=bound, scan_step=step)
        _assert_refines(got, _lmax_loop(a, d, 0.1, bound, step))

    # the third-order term of the envelope moves these rows' cuts, the
    # grids' ends, toward their roots, by 138, 6 and 1 grid points: the
    # downward walk of (5, 30) turns at its first point, the one below the
    # cut, that of (1, 20) at its second
    @pytest.mark.parametrize("a, d, moved", [(3.0, 12.0, 138), (5.0, 30.0, 6), (1.0, 20.0, 1)])
    def test_find_lmax_where_the_third_order_term_moves_the_cut(self, a, d, moved):
        grid, cut = _reference_cut(a, d)
        assert _reference_cut(a, d, envelope=_first_order_envelope)[1] - cut == moved
        want = _lmax_loop(a, d, 0.1)
        assert want.cell[1] <= grid[cut]
        _assert_refines(_result(find_lmax, a, d), want)

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
    # (step 2: the pair is ahead from there); at step 0.0061 the sign
    # change is the first point of the second block
    @pytest.mark.parametrize("a, d, bound, step", [
        (0.5, 0.25, 200.0, 0.01), (3.0, 0.05, 200.0, 0.01), (1.1, 2.7, 200.0, 0.01),
        (1.0, 20.0, 200.0, 0.01), (0.5, 1.6, None, 1.0), (0.5, 0.25, None, 2.0),
        (0.5, 0.25, None, 0.0061)])
    def test_find_crossover_where_the_scan_skips_and_stops_early(self, a, d, bound, step):
        got = _result(find_crossover, a, d, scan_bound=bound, scan_step=step)
        _assert_refines(got, _crossover_loop(a, d, 0.1, bound, step))

    # the walk starts at the lower cut, below which the identical pair is
    # certified ahead: coarse steps put the cut at the point where the
    # difference turns (the scan cell's upper end); a bound short of the
    # crossover puts it at the grid's end, past the envelope's cut
    # (NoCrossover, one row unscaled, one scaled); small gaps leave it at 0
    @pytest.mark.parametrize("a, d, bound, step, floor", [
        (7.866957620691144, 4.217440333271755, None, 0.5, 31),
        (10.397962869684358, 5.831998125213728, None, 1.0, 20),
        (11.864966090019056, 3.1851996880405773, None, 0.1, 238),
        (20.0, 5.0, 30.0, 0.01, 3000),
        (39.7480425277298, 25.344339009657954, 60.0, 0.01, 6000),
        (2.0, 1.0, None, 0.01, 0)])
    def test_find_crossover_from_the_lower_cut(self, a, d, bound, step, floor):
        grid, cut = _reference_cut(a, d, bound, step)
        assert _reference_floor(a, d, bound, step) == floor
        want = _crossover_loop(a, d, 0.1, bound, step)
        if floor == cut:
            assert want == "NoCrossover"
        elif floor > 0:
            assert want.cell[1] == grid[floor]
        _assert_refines(_result(find_crossover, a, d, scan_bound=bound, scan_step=step), want)

    # explore's slowest crossovers walked 11 588, 7 732 and 5 586 points up
    # from the grid's start; their lower cuts lie 2-5 points below the turn,
    # so the walk's first block from the cut holds it
    @pytest.mark.parametrize("a, d", [(39.7480425277298, 25.344339009657954),
                                      (31.098175648818987, 5.154346003902834),
                                      (21.03844208924844, 7.056636712663124)])
    def test_find_crossover_walks_one_block_from_the_lower_cut(self, monkeypatch, a, d):
        calls = _closed_form_calls(monkeypatch)
        result = find_crossover(a, d)
        walked = [np.size(l) for name, _, l in calls if name == "_x_abs"]
        assert result.converged and walked == [analysis._CUT_BLOCK]

    def test_find_lmax_evaluates_under_half_its_grid(self, monkeypatch):
        # bound 10, 1000 points; the root near 2.63 lies just below the
        # certified start, so the walk ends in its first block
        calls = _closed_form_calls(monkeypatch)
        result = find_lmax(0.5, 0.25)
        points = [np.size(l) for name, _, l in calls if name != "_x_abs_slope"]
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

    # rows whose sqrt(P_A P_B) underflows to zero: unscaled, |X| decayed to
    # zero without a sign change Newton could follow (an unbounded Newton
    # took 78 steps at the first, a slope of |X| where |X| had underflowed
    # 49), and the "root" was where |X| underflows.  The scaled excess has
    # a true sign change, refined like any other, at the root of the
    # 50-digit excess
    @pytest.mark.parametrize("a, d", [(13.119291590584101, 26.67600820711357),
                                      (9.557748467651223, 29.58000783353705)])
    def test_underflow_rows_stay_within_the_step_bound(self, a, d):
        assert geometric_mean_probability(a, d, 0.1) == 0.0
        want = _lmax_loop(a, d, 0.1)
        res = find_lmax(a, d)
        _assert_refines(res, want)
        assert res.iterations <= 8 < want.bisections
        _assert_exact_sign_change(lambda l: _mp_excess(a, d, l), res.bracket, True)

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
        # most rows at large gaps, whose P_A P_B is not a normal double, are
        # refined in scaled form; every lmax row has a root, and crossover
        # rows without a sign change raise NoCrossover
        rng = np.random.default_rng(15)
        a, d = rng.uniform(0.0, 40.0, 80), rng.uniform(1e-3, 35.0, 80)
        a[:30], d[:30] = rng.uniform(0.0, 3.0, 30), rng.uniform(1e-3, 3.0, 30)
        assert 40 <= _is_scaled(a, d, 0.1).sum() < 50
        lmax, crossover = find_lmax_many(a, d, 0.1), find_crossover_many(a, d, 0.1)
        assert (lmax.error == "").all() and 30 <= (crossover.error == "").sum() < a.size

        for batch, (start, end), f, exact, positive_at_lo in (
                (lmax, cells[0], lambda l: _scaled_excess(a, d, l), _mp_excess, True),
                (crossover, cells[1], lambda l: _crossover_sign(a, d, l), _mp_difference,
                 False)):
            ok = batch.error == ""
            bound = [_step_bound(c) for c in zip(start[ok], end[ok])]
            assert (batch.iterations[ok] <= bound).all()
            lo, hi = np.where(ok[:, None], batch.bracket, 1.0).T
            assert (hi[ok] - lo[ok] <= 8.0 * np.spacing(lo[ok])).all()
            assert ((f(lo) > 0.0) == positive_at_lo)[ok].all()
            assert ((f(hi) > 0.0) != positive_at_lo)[ok].all()
            for i in np.flatnonzero(ok):
                _assert_exact_sign_change(lambda l: exact(a[i], d[i], l), batch.bracket[i],
                                          positive_at_lo)


def _mp_difference(a, d, l, coupling=0.1):
    """The concurrence difference C(a, d, l) - C(a, 0, l) at 50 digits."""
    return 2 * (max(_mp_excess(a, d, l, coupling), 0) - max(_mp_excess(a, 0.0, l, coupling), 0))


class TestKnownWrongAnswers:
    """Rows where a search answers wrongly without a note, each asserting
    the right answer at 50 digits.  Each is a strict xfail naming the
    ROADMAP item that fixes it, so the change that fixes a row must drop
    its mark."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_gap_search_finds_the_higher_of_two_peaks(self):
        # returned 13.478220, where C is 1.6431e-74, against 2.3914e-74 at 13.17792
        res = find_optimal_gap(3.9, 13.75)
        assert _mp_excess(3.9, res.location, 13.75) >= _mp_excess(3.9, 13.17792, 13.75)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_gap_search_finds_a_peak_inside_the_first_cell(self):
        # returned a boundary maximum, C(0) = 3.0575049e-4 < C(0.005) = 3.0575977e-4
        res = find_optimal_gap(0.70, 1.94)
        assert _mp_excess(0.70, res.location, 1.94) >= _mp_excess(0.70, 0.005, 1.94)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_lmax_reaches_past_a_harvesting_island(self):
        # returned 3.39113, a true sign change below an island between grid
        # points, where the excess is +8.087e-18 at 4.5775
        a, d = 1.4290443694101, 2.5
        assert _mp_excess(a, d, 4.5775) > 0
        res = find_lmax(a, d)
        _assert_exact_sign_change(lambda l: _mp_excess(a, d, l), res.bracket, True)
        assert res.bracket[0] > 4.5775

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_crossover_finds_a_harvesting_island(self):
        # raised NoCrossover, where the difference is +1.7148e-15 at 4.577
        a, d = 1.4290443694101, 2.5
        assert _mp_difference(a, d, 4.577) > 0
        res = find_crossover(a, d)
        _assert_exact_sign_change(lambda l: _mp_difference(a, d, l), res.bracket, False)
        assert res.location <= 4.577

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_crossover_below_the_resolution_of_the_difference(self):
        # returned 1.3738390825, where the d -> 0 limit root is 1.3742260909367279
        # and the root moves by about 0.76 d from it
        res = find_crossover(0.5, 1e-12)
        _assert_exact_sign_change(lambda l: _mp_difference(0.5, 1e-12, l), res.bracket, False)
        assert res.location == pytest.approx(1.3742260909367279, rel=1e-9)


class TestLargeGaps:
    """Rows whose P_A P_B is not a normal double are searched in scaled
    form, and their answers change sign in 50-digit arithmetic.  The
    unscaled excess, |X| - 0 there, raised BracketingFailure at (20, 0)
    and NoHarvestingRegion at (30, 0), (50, 0) and (30, 5), and returned
    the separation where |X| underflows (17.345 at explore seed 3's row)."""

    @pytest.mark.parametrize("a, d, want", [
        (20.0, 0.0, "40.0998"), (30.0, 0.0, "60.0666"), (50.0, 0.0, "100.0400"),
        (30.0, 5.0, "64.676"), (15.415942041051235, 20.555672089941886, "42.4775"),
        # the product is subnormal, its square root normal: a switch on
        # a subnormal square root leaves this row unscaled and wrong
        (15.359109054331253, 6.3253277812904525, "36.0598")])
    def test_find_lmax_against_50_digits(self, a, d, want):
        res = find_lmax(a, d)
        _assert_exact_sign_change(lambda l: _mp_excess(a, d, l), res.bracket, True)
        assert abs(res.location - float(want)) <= 0.5 * 10.0 ** -len(want.split(".")[1])
        assert res.iterations <= 8
        assert _is_scaled(a, d, 0.1)

    # rows whose P_A P_B is normal: the unscaled excess, which the search
    # followed there, put the root 3.6e-14 and 4.4e-14 from the 50-digit
    # one; the scaled excess puts it 1.5e-15 and 6.5e-15 away
    @pytest.mark.parametrize("a, d", [(11.318114714493777, 9.830760262131834),
                                      (7.176241102685861, 10.119832651017477)])
    def test_find_lmax_within_1e_14_of_the_50_digit_root(self, a, d):
        assert not _is_scaled(a, d, 0.1)
        res = find_lmax(a, d)
        root = _reference(0.1).mp.findroot(lambda l: _mp_excess(a, d, l), res.location)
        assert abs(res.location - root) <= 1e-14 * root

    def test_find_crossover_where_the_ratio_of_scales_underflows(self):
        # exp(-d(2a + d)/2) underflows to zero, so the sign of r S_u -
        # max(0, S_e) would turn every point negative (NoCrossover); the
        # crossover is where the identical pair stops harvesting
        a, d = 4.5088116955865685, 34.61449538201831
        assert np.exp(-d * (2.0 * a + d) / 2.0) == 0.0 and _is_scaled(a, d, 0.1)
        res = find_crossover(a, d)
        _assert_exact_sign_change(lambda l: _mp_difference(a, d, l), res.bracket, False)
        assert abs(res.location - 9.4428) <= 5e-5
        _assert_refines(res, _crossover_loop(a, d, 0.1))

    def test_scaled_rows_evaluate_a_few_blocks(self, monkeypatch):
        # the scaled certificate ends the grid near the root: (30, 0) walks
        # one block, 32 of the 6 007 points below its cut (three blocks of
        # 256 under the first-order envelope), where the unscaled scan
        # walked every point of a 24 000-point grid
        calls = _closed_form_calls(monkeypatch)
        res = find_lmax(30.0, 0.0)
        assert abs(res.location - 60.0666) <= 5e-5
        walked = sum(np.size(l) for name, _, l in calls if name == "_x_abs")
        assert walked == analysis._CUT_BLOCK

    # the cut lies 1-3 points above the root, so the walk's first block holds
    # it, and the rest is the refinement's 4-5 points and the value's; the
    # first-order envelope alone leaves 774-3 845 points to evaluate here
    @pytest.mark.parametrize("a, d", [(20.0, 0.0), (50.0, 0.0), (20.0, 10.0),
                                      (35.9157, 32.1953)])
    def test_find_lmax_evaluates_one_block_and_its_refinement(self, monkeypatch, a, d):
        points = []
        original = closedform.faddeeva_w
        monkeypatch.setattr(closedform, "faddeeva_w",
                            lambda z: points.append(np.size(z)) or original(z))
        res = find_lmax(a, d)
        assert res.converged and sum(points) <= analysis._CUT_BLOCK + 6
        assert points[0] == analysis._CUT_BLOCK and points[1:] == [1] * (len(points) - 1)

    def test_a_batch_over_large_gaps_matches_one_problem_calls(self):
        rng = np.random.default_rng(17)
        a, d = rng.uniform(0.0, 40.0, 24), rng.uniform(1e-3, 35.0, 24)
        a[:2], d[:2] = [0.5, 1.2], [0.25, 0.6]  # rows that are not scaled
        for many, one in ((find_lmax_many, find_lmax), (find_crossover_many, find_crossover)):
            batch = many(a, d, 0.1)
            assert [_row(batch, i) for i in range(a.size)] == \
                [_outcome(one, x, y, 0.1) for x, y in zip(a, d)], one.__name__

    # above the bound X's prefactor overflowed: find_optimal_gap(1e154, 1.0)
    # raised RuntimeWarning
    def test_searches_answer_or_refuse_at_the_omega_a_bound_and_raise_past_it(self):
        bound = closedform._MAX_OMEGA_A
        above = float(np.nextafter(bound, np.inf))
        past = re.escape(f"omega_a_sigma={above!r} exceeds")
        res = find_optimal_gap(bound, 1.0)
        assert res.converged and res.location == 0.0 and res.value == 0.0
        with pytest.raises(ValueError, match=past):
            find_optimal_gap(above, 1.0)
        # the separation searches refuse at the bound with the envelope's
        # ValueError: it certifies no separation there
        for search, d in ((find_lmax, 0.0), (find_lmax, 0.5), (find_lmax, 35.0),
                          (find_crossover, 0.5), (find_crossover, 35.0)):
            with pytest.raises(ValueError, match="the envelope certifies no separation"):
                search(bound, d)
            with pytest.raises(ValueError, match=past):
                search(above, d)

    # sweep("omega_a_sigma", [1.0, 1e154], ...) raised RuntimeWarning
    # instead of flagging the point
    def test_a_sweep_flags_the_point_past_the_omega_a_bound(self):
        bound = closedform._MAX_OMEGA_A
        above = float(np.nextafter(bound, np.inf))
        grid = sweep("omega_a_sigma", [1.0, bound, above, 1e154],
                     DetectorPairConfig(1.0, 0.5, 1.0))
        with pytest.raises(ValueError) as exc:
            DetectorPairConfig(above, 0.5, 1.0)
        message = str(exc.value).replace(repr(above), "{}")
        assert grid.errors.tolist() == ["", "", message.format(repr(above)),
                                        message.format(repr(1e154))]
        assert grid.concurrence[0] > 0.0 and grid.concurrence[1] == 0.0
        assert np.isnan(grid.concurrence[2:]).all()


    # above the bound l*l overflowed: find_optimal_gap(0.5, 1.3407807929942597e154)
    # raised RuntimeWarning, with the default gap bound and with one given
    def test_gap_search_answers_at_the_separation_bound_and_raises_past_it(self):
        bound = closedform._MAX_SEPARATION
        above = float(np.nextafter(bound, np.inf))
        past = re.escape(f"l_over_sigma={above!r} exceeds")
        for kwargs in ({}, {"gap_bound": 10.0}):
            res = find_optimal_gap(0.5, bound, **kwargs)
            assert res.converged and res.location == 0.0 and res.value == 0.0
            with pytest.raises(ValueError, match=past):
                find_optimal_gap(0.5, above, **kwargs)

    # sweep("l_over_sigma", [1.0, 1.3407807929942597e154], ...) raised
    # RuntimeWarning instead of flagging the point
    def test_a_sweep_flags_the_point_past_the_separation_bound(self):
        bound = closedform._MAX_SEPARATION
        above = float(np.nextafter(bound, np.inf))
        grid = sweep("l_over_sigma", [1.0, bound, above, 1e300],
                     DetectorPairConfig(0.5, 0.5, 1.0))
        with pytest.raises(ValueError) as exc:
            DetectorPairConfig(0.5, 0.5, above)
        message = str(exc.value).replace(repr(above), "{}")
        assert grid.errors.tolist() == ["", "", message.format(repr(above)),
                                        message.format(repr(1e300))]
        assert grid.concurrence[0] > 0.0 and grid.concurrence[1] == 0.0
        assert np.isnan(grid.concurrence[2:]).all()


class TestCertifiedEnd:
    """Each separation grid ends where the envelope certifies every larger
    separation: no guessed bound refuses a row whose boundary the gap
    difference carries past it, and no point limit a row at large gaps."""

    def test_every_default_lmax_on_the_small_gap_grid_answers(self):
        # 49 of these 468 rows raised BracketingFailure under the guessed
        # bound max(10, 4 * 2 sqrt(a(a + d))): every d >= 10 at a = 0, 20
        # rows at a = 0.25 and 3 at a = 0.5
        a, d = np.meshgrid(np.arange(0.0, 3.125, 0.25), np.arange(36.0), indexing="ij")
        batch = find_lmax_many(a, d)
        assert a.size == 468 and (batch.error == "").all()
        for x, y, bracket in zip(a.ravel(), d.ravel(), batch.bracket.reshape(-1, 2)):
            _assert_exact_sign_change(lambda l: _mp_excess(x, y, l), bracket, True)

    @pytest.mark.parametrize("a, d, want", [(0.0, 35.0, 35.050851207004065),
                                            (0.25, 16.0, 16.138257139780134)])
    def test_rows_past_the_guessed_bound(self, a, d, want):
        # the guessed bounds were 10 and 16.1245
        res = find_lmax(a, d)
        assert res.location == want
        _assert_refines(res, _lmax_loop(a, d, 0.1))

    def test_a_grid_of_millions_of_points_answers(self, monkeypatch):
        # "a scan grid of 2.4e+07 points exceeds the limit" before; the cut
        # lies a few points above the root, 6 M points up the grid, and the
        # walk is one block
        points = []
        original = closedform.faddeeva_w
        monkeypatch.setattr(closedform, "faddeeva_w",
                            lambda z: points.append(np.size(z)) or original(z))
        res = find_lmax(3e4, 0.0)
        assert abs(res.location - 60000.0000667) <= 1e-7
        assert points[0] == analysis._CUT_BLOCK and sum(points) <= analysis._CUT_BLOCK + 6
        _assert_exact_sign_change(lambda l: _mp_excess(3e4, 0.0, l), res.bracket, True)

    def test_only_a_bound_below_the_end_gives_a_bracketing_failure(self):
        # the capped grid's last point, 1.0, harvests
        with pytest.raises(BracketingFailure, match="positive at 1.0, the last grid point"):
            find_lmax(0.5, 0.0, scan_bound=1.0)
        assert find_lmax(0.5, 0.0, scan_bound=3.0) == find_lmax(0.5, 0.0)

    def test_default_failures_say_they_are_certified(self):
        with pytest.raises(NoCrossover, match="past whose end the envelope certifies it zero"):
            find_crossover(1.1, 2.7)
        with pytest.raises(NoHarvestingRegion, match="where the envelope certifies none"):
            find_lmax(0.2, 0.0, scan_step=5.0)


class TestCouplings:
    """The excess scales by the coupling's square, so the searches decide
    at unit coupling: location, bracket, iterations and note do not depend
    on the coupling, and only ``value`` is evaluated at it."""

    # at coupling 1e-160 sqrt(P~_A P~_B) was not a normal double, so nothing
    # was certified and find_lmax raised BracketingFailure at the guessed
    # bound 10; at 1e-200 it underflowed to zero and the excess with it
    # (NoHarvestingRegion), and find_crossover raised NoCrossover at both
    @pytest.mark.parametrize("coupling", [1e-200, 1e-160, 1.0])
    def test_tiny_couplings_answer(self, coupling):
        assert find_lmax(0.5, 0.5, coupling).location == 2.8191259893741174
        assert find_crossover(0.5, 0.5, coupling).location == 1.746091827701484

    def test_answers_do_not_depend_on_the_coupling(self):
        # from 0.1 to 1 the decisions at the caller's coupling moved 1 033 of
        # 2 000 such lmax locations and 877 crossovers by up to 1.1e-14
        # relative, and changed 3 notes
        rng = np.random.default_rng(24)
        a, d = rng.uniform(0.0, 40.0, 200), rng.uniform(1e-3, 35.0, 200)
        for many in (find_lmax_many, find_crossover_many):
            rows = []
            for coupling in (1e-200, 1e-3, 0.1, 1.0, 10.0):
                batch = many(a, d, coupling)
                rows.append([(_bits(batch.location), _bits(batch.bracket),
                              batch.iterations.tolist(), batch.note.tolist(),
                              batch.error.tolist())])
            assert all(r == rows[0] for r in rows), many.__name__

    # past the coupling bound P_A P_B overflowed: find_lmax(0.5, 0.25, 1e100)
    # returned a value of -inf, and from about 1.3e154 on coupling**2 raised
    # OverflowError
    def test_searches_answer_at_the_coupling_bound_and_raise_past_it(self):
        bound = closedform._MAX_COUPLING
        above = float(np.nextafter(bound, np.inf))
        for search in (find_lmax, find_crossover, find_optimal_gap):
            at, weak = search(0.5, 0.25, bound), search(0.5, 0.25, 0.1)
            assert at.location == weak.location and at.bracket == weak.bracket
            assert at.value / bound**2 == pytest.approx(weak.value / 0.01, rel=1e-12)
            with pytest.raises(ValueError, match=re.escape(f"coupling={above!r} exceeds")):
                search(0.5, 0.25, above)

    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    def test_a_sweep_flags_every_point_past_the_coupling_bound(self):
        bound = closedform._MAX_COUPLING
        above = float(np.nextafter(bound, np.inf))
        fixed = DetectorPairConfig(0.5, 0.25, 1.0, bound)
        grid = sweep("l_over_sigma", [0.5, 2.0], fixed)
        assert grid.errors.tolist() == ["", ""] and np.isfinite(grid.concurrence).all()
        # a config past the bound cannot be built; forced, each point is
        # flagged with the message it raises
        object.__setattr__(fixed, "coupling", above)
        grid = sweep("l_over_sigma", [0.5, 2.0], fixed)
        with pytest.raises(ValueError) as exc:
            DetectorPairConfig(0.5, 0.25, 1.0, above)
        assert grid.errors.tolist() == [str(exc.value)] * 2
        assert np.isnan(grid.concurrence).all()


class TestBatchedSearches:
    """Each ``*_many`` row is the one-problem search of that row, bit for
    bit: both run the same core, and the closed forms give the same bits
    for scalar and array calls."""

    def test_lmax_rows_match_scalar_bitwise(self):
        # the products underflow at (20, 0) and (30, 0), which are scanned
        # in scaled form beside the others
        a = np.array([0.2, 0.5, 1.2, 1.2, 20.0, 30.0])
        d = np.array([0.0, 0.25, 0.6, 3.6, 0.0, 0.0])
        batch = find_lmax_many(a, d, 1.0)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_lmax, x, y, 1.0) for x, y in zip(a, d)]
        assert batch.location[-2:] == pytest.approx([40.0998, 60.0666], abs=5e-5)

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

    def test_golden_section_evaluates_every_interior_row_at_each_call(self, monkeypatch):
        # row 0 is a boundary maximum (lo = hi = 0): the golden section never
        # evaluates it.  Every call holds the interior rows, finished or not,
        # two at entry and one per step that leaves a row open; every row
        # keeps the bits of its one-row call
        a, l = np.array([0.5, 0.5, 0.2]), np.array([0.5, 2.0, 4.0])
        calls = _golden_calls(monkeypatch)
        batch = find_optimal_gap_many(a, l, 0.1)
        assert batch.note[0] == "boundary maximum at zero gap difference"
        assert batch.iterations[0] == 0 and min(batch.iterations[1:]) > 20
        assert [np.size(d) for d, _ in calls] == [2] * (batch.iterations.max() + 1)
        monkeypatch.undo()
        assert [_row(batch, i) for i in range(3)] == [
            _outcome(find_optimal_gap, x, y, 0.1) for x, y in zip(a, l)
        ]

    def test_gap_rows_leaving_the_golden_section_on_different_steps_match_scalar_bitwise(
            self, monkeypatch):
        # one peak under four gap bounds: the 1e-7 row's bracket starts
        # narrower than 1e-8 and keeps it with 0 iterations, the others
        # finish after 29, 32 and 37 steps and keep their brackets from
        # there while the rest go on; the boundary row is never evaluated
        l = np.array([2.0, 2.0, 2.0, 2.0, 0.5])
        bound = np.array([1e-7, 1.0, 4.0, 60.0, 4.0])
        calls = _golden_calls(monkeypatch)
        batch = find_optimal_gap_many(0.5, l, 0.1, gap_bound=bound)
        assert batch.iterations.tolist() == [0, 29, 32, 37, 0]
        assert batch.note[-1] == "boundary maximum at zero gap difference"
        assert [np.size(d) for d, _ in calls] == [4] * 38
        monkeypatch.undo()
        assert [_row(batch, i) for i in range(l.size)] == [
            _outcome(find_optimal_gap, 0.5, y, 0.1, gap_bound=b) for y, b in zip(l, bound)
        ]

    def test_crossover_rows_match_scalar_bitwise(self):
        a = np.array([0.2, 0.5, 0.5, 1.2])
        d = np.array([0.1, 0.25, 0.25, 0.6])
        bound = np.array([10.0, 10.0, 1.0, 10.0])  # no crossover below 1
        batch = find_crossover_many(a, d, 1.0, scan_bound=bound)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_crossover, x, y, 1.0, scan_bound=b)
                        for x, y, b in zip(a, d, bound)]
        assert rows[2] == "NoCrossover"

    @pytest.mark.parametrize("step", [0.01, 0.5])
    def test_crossover_rows_from_their_lower_cuts_match_scalar_bitwise(self, step):
        # rows over the domain, most of which walk from a lower cut above 0,
        # and bounds short of some crossovers; the other rows' bound 1e6
        # lies far above their certified ends, where their grids end
        rng = np.random.default_rng(18)
        a, d = rng.uniform(0.0, 40.0, 30), 35.0 - rng.uniform(0.0, 35.0, 30)
        bound = np.where(rng.uniform(size=30) < 0.3, rng.uniform(1.0, 60.0, 30), 1e6)
        batch = find_crossover_many(a, d, 0.1, bound, step)
        assert [_row(batch, i) for i in range(a.size)] == \
            [_outcome(find_crossover, x, y, 0.1, b, step) for x, y, b in zip(a, d, bound)]
        assert 0 < np.count_nonzero(batch.error) < 0.5 * a.size

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
        # a bound must be finite, and past scan_step*2^52 the grid points
        # step + i*step stop being distinct doubles
        with pytest.raises(ValueError, match="must be finite"):
            find_lmax_many([0.5, 0.5], [0.0, 0.0], scan_bound=[10.0, np.inf])
        with pytest.raises(ValueError, match="must be finite"):
            find_crossover(0.5, 0.25, scan_bound=np.nan)
        with pytest.raises(ValueError, match="distinct doubles"):
            find_lmax(0.5, 0.25, scan_bound=1e14)
        with pytest.raises(ValueError, match="distinct doubles"):
            find_crossover_many(0.5, 0.25, scan_bound=1e3, scan_step=1e-13)
        # no bound, and nothing certified below scan_step*2^52: the root lies
        # near 2e14, or the product P~_A P~_B underflows to zero
        with pytest.raises(ValueError, match="certifies no separation"):
            find_lmax(1e14, 0.0)
        with pytest.raises(ValueError, match="certifies no separation"):
            find_crossover_many([0.5, 1e100], 0.25, scan_step=1e90)
        with pytest.raises(ValueError, match="scan_step"):
            find_lmax(0.5, 0.25, scan_step=0.0)
        with pytest.raises(ValueError, match="scan_step"):
            find_crossover(0.5, 0.25, scan_step=1e300)

    # at separations below about 1e-176 the envelope overflows to +inf, and
    # l^2 + d^2 underflows to 0 at d = 0: bounds that certify nothing.  Both
    # warned (overflow, division by zero) before the search raised
    @pytest.mark.parametrize("search, a, d, step", [
        (find_lmax, 0.5, 0.25, 1e-320), (find_crossover, 0.5, 0.25, 1e-320),
        (find_lmax, 0.5, 35.0, 1e-200), (find_crossover, 0.5, 35.0, 1e-200),
        (find_lmax, 0.5, 0.0, 1e-170)])
    def test_a_tiny_scan_step_raises_without_a_warning(self, search, a, d, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="certifies no separation"):
                search(a, d, scan_step=step)

    def test_a_bound_far_above_the_certified_end_changes_nothing(self):
        # the grid ends at its certified cut: a cap above it, even one of 1e14
        # points, which the 1e7-point limit refused, gives the uncapped answer
        for search in (find_lmax, find_crossover):
            assert _outcome(search, 0.5, 0.25, scan_bound=1e12) == _outcome(search, 0.5, 0.25)

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
        assert rows[1] == "BracketingFailure"
        assert float.fromhex(rows[2][0]) == pytest.approx(60.0666, abs=5e-5)
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

    @pytest.mark.parametrize("explicit_bound", [False, True])
    def test_shuffled_gap_rows_sharing_separation_and_bound_match_scalar_bitwise(
            self, explicit_bound):
        # a shuffled (gaps x separations) batch: the 6 rows of each (l,
        # bound) key share one bracket evaluation of their scan, in runs
        # that straddle chunks of 32 rows; every field keeps its bits
        rng = np.random.default_rng(12)
        gaps, ls = rng.uniform(0.0, 3.0, 6)[:, None], rng.uniform(0.3, 6.0, 30)
        bounds = rng.choice([1.0, 4.0], 30) if explicit_bound else np.maximum(4.0, ls)
        order = rng.permutation(180)
        a, l, bound = (np.broadcast_to(x, (6, 30)).ravel()[order] for x in (gaps, ls, bounds))
        batch = find_optimal_gap_many(a, l, 0.1, gap_bound=bound if explicit_bound else None)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_optimal_gap, x, y, 0.1, gap_bound=b)
                        for x, y, b in zip(a, l, bound)]
        assert len({r[-1] for r in rows}) > 1

    def test_rows_do_not_depend_on_the_chunk_and_block_sizes(self, monkeypatch):
        # tiny caps and blocks: a gap scan call takes 2 rows, and every
        # walk runs many later blocks, capped at 700 points a call; every
        # row keeps the bits of the search at the module's sizes
        a, d, bound = _lmax_rows()
        lmax = find_lmax_many(a, d, 0.1, scan_bound=bound, scan_step=0.001)
        a2, d2, bound2 = _crossover_rows()
        crossover = find_crossover_many(a2, d2, 0.1, scan_bound=bound2)
        peak = find_optimal_gap_many(a, d + 0.3, 0.1)
        # at step 0.4 these differences are positive from the grid's first
        # point: the pairs are ahead from there
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
    chunks of rows: mixed bounds, most above the rows' certified ends,
    rows raising BracketingFailure (bounds below the root), (30, 0), whose
    product underflows, so that it is
    scanned in scaled form beside the others (the unscaled excess certified
    nothing there, walked every block and raised NoHarvestingRegion), and
    (0.5, 0.25), whose root lies in its second block."""
    rng = np.random.default_rng(8)
    a, d = rng.uniform(0.0, 3.0, 24), rng.uniform(0.0, 3.0, 24)
    bound = rng.choice([2.0, 4.0, 6.0, 12.0], 24)
    a[:4], d[:4], bound[:4] = [0.5, 0.5, 30.0, 0.2], [0.25, 0.0, 0.0, 0.0], [10.0, 1.0, 80.0, 3.0]
    return a, d, bound


def _crossover_rows():
    """40 find_crossover problems over several chunks of rows: bounds 1e6
    and 200, far above the rows' certified ends, where their grids end, and
    bound 1 (no crossover); most crossovers lie past their first block."""
    rng = np.random.default_rng(9)
    a, d = rng.uniform(0.0, 3.0, 40), rng.uniform(0.02, 3.0, 40)
    bound = rng.choice([np.nan, np.nan, 200.0, 1.0], 40)
    return a, d, np.where(np.isnan(bound), 1e6, bound)


def _fig5_rows():
    """fig5's 1600 find_lmax problems (coupling 1), flat."""
    gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
    a, d = np.broadcast_arrays(gaps, gaps * np.linspace(0.0, 3.0, 400))
    return a.ravel(), d.ravel()


def _reference_grid(bound, step):
    """A row's separation grid up to ``bound``, built in full by np.arange."""
    return np.arange(step, bound + 0.5 * step, step)


def _first_order_envelope(d, l):
    """The scaled envelope through |Im w(z)| <= min(1, M/|z|) alone, without
    the third-order term, at unit coupling."""
    w_bound = np.minimum(1.0, 2.0 * closedform._ZW_BOUND / np.sqrt(l * l + d * d))
    return 1.0 / (8.0 * np.sqrt(np.pi) * l) * (2.0 * w_bound + 2.0 * np.exp((d * d - l * l) / 4.0))


def _reference_cut(a, d, bound=None, step=0.01, envelope=closedform._scaled_x_envelope):
    """A row's grid and its end from the envelope certificate of every
    point: the first certified point, or the grid's size where the bound
    caps it first.  The grid runs to the bound, or to the first multiple of
    10 times a power of two, up to the bound, whose point is certified.  The
    certificate compares the scaled envelope with sqrt(P~_A P~_B), both at
    unit coupling.  Checks that the certified points are a suffix of the
    grid."""
    gm = closedform._scaled_gm(a, d, 1.0)
    assert gm >= np.finfo(float).tiny
    top = 10.0
    while True:
        grid = _reference_grid(top if bound is None else min(top, bound), step)
        certified = envelope(d, grid) * (1.0 + analysis._ENVELOPE_MARGIN) < gm
        if certified[-1] or (bound is not None and top >= bound):
            break
        top *= 2.0
    k = int(np.argmax(certified)) if certified.any() else grid.size
    assert certified[k:].all() and not certified[:k].any()
    return grid, k


def _reference_floor(a, d, bound=None, step=0.01):
    """A crossover row's lower cut from the certificate of every point of
    its grid below its end (:func:`_reference_cut`): the first point where
    the Dawson bound on the identical pair's |X|, less the margin, minus
    its sqrt(P_A P_B) does not exceed r max(0, U_u (1 + margin) - sqrt(P_A
    P_B)) of the non-identical pair, U_u its envelope at the grid's first
    point and r the ratio of the pairs' scales, every term divided by its
    pair's E and at unit coupling; the end where every point is certified.
    Checks that the certified points are a prefix of the grid."""
    grid, cut = _reference_cut(a, d, bound, step)
    grid = grid[:cut]
    margin = analysis._ENVELOPE_MARGIN
    gm_u, gm_e = closedform._scaled_gm(a, d, 1.0), closedform._scaled_gm(a, 0.0, 1.0)
    ceiling = closedform._scaled_x_envelope(d, step)
    floor = closedform._scaled_x_floor(grid)
    ratio = np.exp(-d * (2.0 * a + d) / 2.0)
    certified = floor * (1.0 - margin) - gm_e > ratio * max(0.0, ceiling * (1.0 + margin) - gm_u)
    k = grid.size if certified.all() else int(np.argmin(certified))
    assert certified[:k].all() and not certified[k:].any()
    return k


class TestScanGrids:
    """The separation scans build no grid: point i is step + i*step, and
    each grid ends at its first certified point, its cut, found by one
    lockstep search below a closed-form end."""

    @pytest.mark.parametrize("step", [0.4, 0.01, 0.001])
    def test_index_arithmetic_is_arange_bit_for_bit(self, step):
        rng = np.random.default_rng(15)
        bound = np.concatenate([
            rng.uniform(step, 2.0 * step, 100),  # between one and two steps
            rng.uniform(step, min(400.0, 4e4 * step), 100),
            [np.nextafter(step, np.inf), 2.0 * step, 3.0 * step, 1.0, 10.0, 40.0]])
        bound = bound[bound > step]
        n = analysis._grid_size(bound, step)
        for i, b in enumerate(bound):
            grid = step + np.arange(n[i]) * step
            assert grid.tobytes() == _reference_grid(b, step).tobytes(), b

    def test_bisected_cut_is_the_edge_of_the_per_point_mask(self):
        # fig5's rows, and rows over the whole domain, where the products
        # underflow at large gaps, on grids that no bound caps and on grids
        # capped near their cuts; as one batch (a bisection per call), in
        # batches of 40 rows (6 indices per row and call) and one row at a
        # time (256 indices per call)
        rng = np.random.default_rng(16)
        edges = set()
        for a, d in (_fig5_rows(), (rng.uniform(0.0, 40.0, 400), rng.uniform(0.0, 35.0, 400))):
            gm = closedform._scaled_gm(a, d, 1.0)
            cuts = np.array([_reference_cut(x, y)[1] for x, y in zip(a, d)])
            capped = analysis._grid_size(rng.uniform(0.5, 2.0, a.size) * 0.01 * (cuts + 2), 0.01)
            for n, want in ((np.full(a.size, analysis._GRID_POINTS), cuts),
                            (capped, np.minimum(cuts, capped))):
                for size in (a.size, 40, 1):
                    rows = [slice(i, i + size) for i in range(0, min(a.size, 100 * size), size)]
                    got = [analysis._cuts(0.01, n[r], gm[r], d[r]) for r in rows]
                    assert np.concatenate(got).tolist() == want[:rows[-1].stop].tolist(), size
                edges |= set(want == n)
        assert edges == {False, True}  # cuts inside capped grids and at their ends

    @pytest.mark.parametrize("step", [0.4, 0.01, 0.001, 1e-6])
    def test_closed_form_end_is_certified(self, step):
        # the cut search's bracket ends at the grid point of _cut_bound's
        # separation, which the envelope must certify: else the search could
        # return an uncertified point as the cut, and find_lmax would walk
        # down from below a harvesting region.  Rows with a = 0 or a up to
        # 1e76, where gm nears the end of the normal range, and d up to 35
        rng = np.random.default_rng(31)
        a = np.where(rng.random(3000) < 0.2, 0.0, np.exp(rng.uniform(-7.0, np.log(1e76), 3000)))
        d = np.where(rng.random(3000) < 0.1, 35.0, rng.uniform(0.0, 35.0, 3000))
        gm = closedform._scaled_gm(a, d, 1.0)
        assert analysis._normal(gm).all()
        end = np.floor(analysis._cut_bound(d, gm) / step + 1.0)
        inside = end < analysis._GRID_POINTS
        assert inside.sum() > 500
        envelope = closedform._scaled_x_envelope(d[inside], step + end[inside] * step)
        assert (envelope * (1.0 + analysis._ENVELOPE_MARGIN) < gm[inside]).all()

    def test_lower_cut_is_the_edge_of_the_per_point_mask(self, monkeypatch):
        # the floors find_crossover_many walks from, over the domain at three
        # couplings, which they do not depend on, with bounds far above the
        # rows' certified ends and bounds short of the crossovers; as one
        # batch, in batches of 40 rows and one row at a time
        floors = []
        original = analysis._floors
        monkeypatch.setattr(analysis, "_floors",
                            lambda *args: floors.append(original(*args)) or floors[-1])
        rng = np.random.default_rng(18)
        a, d = rng.uniform(0.0, 40.0, 120), 35.0 - rng.uniform(0.0, 35.0, 120)
        bound = np.where(rng.uniform(size=120) < 0.25, rng.uniform(1.0, 60.0, 120), 1e6)
        want = [_reference_floor(x, y, b) for x, y, b in zip(a, d, bound)]
        for coupling in (1e-3, 0.1, 1.0):
            for size in (a.size, 40, 1):
                floors.clear()
                for i in range(0, a.size, size):
                    find_crossover_many(a[i:i + size], d[i:i + size], coupling, bound[i:i + size])
                assert np.concatenate(floors).tolist() == want, (coupling, size)
        cuts = [_reference_cut(x, y, b)[1] for x, y, b in zip(a, d, bound)]
        kinds = {0 if f == 0 else "end" if f == c else "inside" for f, c in zip(want, cuts)}
        assert kinds == {0, "inside", "end"}


class TestChunkedScanCalls:
    """The gap scans run over fixed slices of rows, one closed-form call
    per slice; a separation scan walks all its rows in one lockstep, one
    call per round of blocks, each call capped at _SCAN_CHUNK points or one
    per row where more rows walk."""

    def test_fig4_scans_in_one_call_per_chunk(self, monkeypatch):
        # fig4's 1600 gap scans take ceil(1600 * 256 / chunk) calls over
        # (rows, samples) grids, then the golden section takes two and one
        # per step that leaves a row open, each over the interior rows: the
        # boundary maxima are never evaluated, and the interior rows all
        # finish on the same step, so each is evaluated once per step plus
        # once more; one call takes the peaks
        calls = _closed_form_calls(monkeypatch)
        gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
        batch = find_optimal_gap_many(gaps, np.linspace(0.5, 4.1, 400), 1.0)
        shapes = [np.shape(d) for _, d, _ in calls]
        scans = [len(s) for s in shapes].index(1)
        assert scans <= -(-1600 * analysis._GAP_SCAN_POINTS // analysis._SCAN_CHUNK)
        assert all(len(s) == 2 and np.prod(s) <= analysis._SCAN_CHUNK for s in shapes[:scans])
        interior = batch.iterations > 0
        assert 0 < interior.sum() < 1600
        assert len(shapes) == scans + 2 + batch.iterations.max()
        golden = [s[0] for s in shapes[scans:-1]]
        assert golden[:2] == [interior.sum()] * 2 and shapes[-1] == (4, 400)
        assert golden == sorted(golden, reverse=True)
        assert sum(golden) == np.sum(batch.iterations[interior] + 1)

    def test_fig5_walks_in_one_call_per_round(self, monkeypatch):
        # fig5's 1600 rows: at most 12 envelope points a row for the cuts
        # (a mask over every grid point takes 1.9 M), then one call per
        # round of blocks over every row still walking, as many rounds as
        # the slowest walk to its root needs, then one per Newton step and
        # one at the roots.  The first block is one point of each row
        # (_SCAN_BLOCK // 1600 is 0), and the blocks double up to
        # _SCAN_CHUNK // rows still walking
        a, d = _fig5_rows()
        walked, to_root = [], []
        for x, y in zip(a, d):
            grid, cut = _reference_cut(x, y)
            # the walk runs down from the point below the cut
            positive = _scaled_excess(x, y, grid[max(cut - 512, 0):cut][::-1]) > 0.0
            assert positive.any()
            walked.append(cut)
            to_root.append(np.argmax(positive) + 1)
        want = _walk_shapes(1, to_root, walked)
        rounds = len(want)
        assert rounds < sum(_blocks(1, n) for n in to_root)
        envelope = _envelope_shapes(monkeypatch)
        calls = _closed_form_calls(monkeypatch)
        batch = find_lmax_many(a.reshape(4, 400), d.reshape(4, 400), 1.0)
        assert sum(np.prod(s) for s in envelope) <= 1600 * 12
        shapes = [np.shape(l) for _, _, l in calls]
        assert shapes[:rounds] == want and shapes.index((4, 400)) == rounds
        assert len(shapes) == rounds + batch.iterations.max() + 1

    def test_later_blocks_make_one_call_per_round(self, monkeypatch):
        # round r walks block r of every row still walking, in one call, so
        # the scan makes as many calls as the rule's blocks take to cover
        # the slowest walk: counted here on the full grid, with the walk
        # starting at the lower cut of the per-point mask and ending at its
        # cut or with the block that holds the first positive point.  The
        # first block is _SCAN_BLOCK // rows points of each of the rows that
        # walk, or _CUT_BLOCK where that is fewer and each of them starts
        # from a lower cut above the grid's first point
        a, d, bound = _crossover_rows()
        ends, walks, floors = [], [], []
        for x, y, b in zip(a, d, bound):
            grid, stop = _reference_cut(x, y, b)
            floor = _reference_floor(x, y, b)
            walks.append(stop - floor)
            floors.append(floor)
            positive = _crossover_sign(x, y, grid) > 0.0
            turns = floor + np.flatnonzero(positive[floor:stop])
            ends.append(turns[0] + 1 if turns.size else stop)
        assert 0 < np.count_nonzero(floors) < a.size
        walks, floors, ends = (np.array(x) for x in (walks, floors, ends))
        walking = walks > 0
        size = analysis._SCAN_BLOCK // np.count_nonzero(walking)
        if (floors[walking] > 0).all():
            size = min(size, analysis._CUT_BLOCK)
        ends = (ends - floors)[walking]
        want = _walk_shapes(size, ends, walks[walking])
        blocks = [_blocks(size, n) for n in ends]
        assert want[0][0] > 1 and len(want) > 1
        calls = _closed_form_calls(monkeypatch)
        batch = find_crossover_many(a, d, 0.1, scan_bound=bound)
        assert [np.shape(l) for name, _, l in calls if name == "_x_abs"] == want
        # two refinement calls per Newton step, one per pair
        assert len(calls) - 2 * batch.iterations.max() - 1 == len(want) < sum(blocks)

    def test_figures_evaluate_the_kernel_at_few_points(self, monkeypatch):
        # fig4's gap scans share one grid and bracket per separation: 400
        # scans of 256 points, then the golden section over all 1600 rows,
        # two probes to start, one per step and one at the peaks.  fig5's
        # walks start with one point of each row
        gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
        steps = find_optimal_gap_many(gaps, np.linspace(0.5, 4.1, 400), 1.0).iterations.max()
        points = []
        original = closedform.faddeeva_w
        monkeypatch.setattr(closedform, "faddeeva_w",
                            lambda z: points.append(np.size(z)) or original(z))
        cli.build_figure("fig4", 400)
        assert sum(points) <= 400 * analysis._GAP_SCAN_POINTS + 1600 * (steps + 3)
        points.clear()
        cli.build_figure("fig5", 400)
        assert sum(points) <= 135_000

    def test_separation_scan_calls_stay_within_the_cap(self, monkeypatch):
        # rows ending at their certified cuts and at 1 switching length side
        # by side: each round, over the walks of the rows still walking
        # padded to the longest, holds at most _SCAN_CHUNK points, or one
        # point per row where more rows walk; the cuts take one envelope
        # call per step, of at most a first block's points, and the lower
        # cut one at the grids' first points
        a, d, bound = _crossover_rows()
        envelope = _envelope_shapes(monkeypatch)
        calls = _closed_form_calls(monkeypatch)
        find_crossover_many(a, d, 0.1, scan_bound=bound)
        *envelope, ceiling = envelope
        assert ceiling == ()  # the grids' common first point
        rounds = [np.shape(l) for _, _, l in calls if np.ndim(l) == 2]
        assert len(rounds) > 3 and any(s[0] > 1 for s in rounds)
        assert all(np.prod(s) <= max(analysis._SCAN_CHUNK, s[0]) for s in rounds)
        # 40 rows probe 6 indices each per step, which divides every bracket
        # by 7 or more; the brackets start at the closed-form ends, below
        # twice max(256, cut) here
        cuts = [_reference_cut(x, y, b)[1] for x, y, b in zip(a, d, bound)]
        assert max(cuts) <= analysis._SCAN_BLOCK * 2**5
        steps = next(k for k in range(1, 64) if 7**k > max(256, *cuts))
        assert 0 < len(envelope) <= 1 + steps
        assert all(s[0] <= a.size and s[1] == 6 for s in envelope)

    def test_more_rows_than_the_cap_walk_one_point_per_row(self, monkeypatch):
        # 9 000 rows over small gaps: while more than _SCAN_CHUNK rows walk,
        # each call holds one point of each; then the blocks double within
        # the cap.  Every row keeps the bits of the batch run as two halves,
        # whose calls start with one point per row and double sooner
        rng = np.random.default_rng(28)
        a, d = rng.uniform(0.0, 3.0, 9000), rng.uniform(0.0, 3.0, 9000)
        calls = _closed_form_calls(monkeypatch)
        batch = find_lmax_many(a, d, 0.1)
        walks = [np.shape(l) for name, _, l in calls if name == "_x_abs"]
        crowded = [s for s in walks if s[0] > analysis._SCAN_CHUNK]
        assert len(crowded) > 1 and all(s[1] == 1 for s in crowded)
        assert walks[:len(crowded)] == crowded and max(s[1] for s in walks) > 1
        assert all(np.prod(s) <= max(analysis._SCAN_CHUNK, s[0]) for s in walks)
        halves = [find_lmax_many(a[h], d[h], 0.1) for h in (slice(0, 4500), slice(4500, None))]
        assert [_row(batch, i) for i in range(a.size)] == \
            [_row(h, i) for h in halves for i in range(4500)]

    def test_a_walk_longer_than_a_chunk_calls_at_most_a_chunk(self, monkeypatch):
        # the Dawson floor certifies nothing here, so the walk runs from the
        # grid's first point through 400 000 points to the certified end;
        # its blocks stop doubling at a chunk's points, where they grew to
        # 138 112 points a call, 276 k Faddeeva points over both pairs (at
        # a = 5e4 the walk of 1e7 points held 730 MB)
        calls = _closed_form_calls(monkeypatch)
        _result(find_crossover, 2000.0, 1e-3)
        walked = [np.size(l) for name, _, l in calls if name == "_x_abs"]
        assert sum(walked) > 40 * analysis._SCAN_CHUNK
        assert max(walked) == analysis._SCAN_CHUNK

    def test_one_problem_cut_searches_take_at_most_two_envelope_calls(self, monkeypatch):
        # a one-problem cut search probes 256 indices per call, which splits
        # its bracket, up to the closed-form end, into 257, so an end below
        # 257^2 = 66 049 points takes at most two calls, as the guessed
        # bound's grids did: the rows here, explore's kind and rows that
        # bound refused, at both searches
        counts = []
        envelope = _envelope_shapes(monkeypatch)
        original = analysis._cuts
        monkeypatch.setattr(analysis, "_cuts", lambda *args: (
            envelope.clear(), original(*args), counts.append(len(envelope)))[1])
        rng = np.random.default_rng(19)
        a = np.concatenate([[0.0, 0.25, 30.0, 50.0, 0.5], rng.uniform(0.0, 40.0, 60)])
        d = np.concatenate([[35.0, 16.0, 0.0, 0.0, 0.25], rng.uniform(1e-3, 35.0, 60)])
        for x, y in zip(a, d):
            _result(find_lmax, x, y)
            if y > 0.0:
                _result(find_crossover, x, y)
        assert len(counts) == 2 * a.size - 2 and max(counts) <= 2

    def test_certificate_needs_a_normal_finite_gm(self, monkeypatch):
        # at (27, 0) P_A P_B underflows to zero at coupling 0.1, and the scan
        # compares the scaled envelope with sqrt(P~_A P~_B) = gm at unit
        # coupling: at l = 100, past the root near 54, it certifies the true
        # excess (50 digits) as negative.  A one-point grid at l = 100 ends
        # before its point only where gm is normal and finite: the margin is
        # relative
        assert transition_probability(27.0, 0.1) ** 2 == 0.0
        gm = closedform._scaled_gm(27.0, 0.0, 1.0)
        assert closedform._scaled_x_envelope(0.0, 100.0) < gm
        assert _mp_excess(27.0, 0.0, 100.0) < 0
        gm = np.array([gm, 1e-310, 0.0, np.inf, np.nan])
        d, n = np.zeros(5), np.ones(5, dtype=np.int64)
        assert analysis._cuts(100.0, n, gm, d).tolist() == [0, 1, 1, 1, 1]
        # nor where gm is normal but its square P~_A P~_B subnormal (1e-320),
        # which the margin does not cover; at l = 1e150 the envelope is 1e-301
        assert analysis._cuts(1e150, n[:2], np.array([1e-150, 1e-160]), d[:2]).tolist() == [0, 1]
        # where no row may certify, no envelope is evaluated
        envelope = _envelope_shapes(monkeypatch)
        assert analysis._cuts(100.0, n[1:], gm[1:], d[1:]).tolist() == [1, 1, 1, 1]
        assert envelope == []


def _walk_shapes(first, ends, lengths):
    """The (rows, points) shapes of the calls of a lockstep walk over rows
    whose blocks must cover ``ends`` points (at least one each) of walks of
    ``lengths`` points: the first block of ``first`` points, each later one
    twice the one before but at most _SCAN_CHUNK // rows still walking (at
    least one), each call as wide as its block or the longest walk's
    rest."""
    ends, lengths = np.asarray(ends), np.asarray(lengths)
    shapes, offset, size = [], 0, first
    while ends.size:
        shapes.append((ends.size, min(size, int(lengths.max()) - offset)))
        offset += size
        ends, lengths = ends[ends > offset], lengths[ends > offset]
        size = max(1, min(2 * size, analysis._SCAN_CHUNK // max(ends.size, 1)))
    return shapes


def _blocks(size, points):
    """The blocks of a walk, the first of ``size`` points (at least one)
    and each later one twice the one before, that cover ``points``."""
    n, walked = 0, 0
    while walked < points:
        walked, n = walked + (max(1, size) << n), n + 1
    return n


def _envelope_shapes(monkeypatch):
    """Record the shape of l of every envelope call of the scans."""
    shapes = []
    original = analysis._scaled_x_envelope
    monkeypatch.setattr(analysis, "_scaled_x_envelope",
                        lambda d, l: shapes.append(np.shape(l)) or original(d, l))
    return shapes


class TestOneProblemPath:
    """A one-problem walk that starts next to a cut, down from the upper
    cut (find_lmax) or up from a lower cut above the grid's first point
    (find_crossover), has a first block of _CUT_BLOCK separations: nearly
    every turn lies within a few points of the cut.  A walk from the
    grid's first point keeps _SCAN_BLOCK.  Each search evaluates erfcx
    once per distinct gap: the brackets that decide the walk serve the
    value too."""

    @pytest.mark.parametrize("search", [find_lmax, find_crossover])
    def test_a_walk_from_a_cut_starts_with_a_short_block(self, monkeypatch, search):
        # explore's kind of row; every crossover among them has a lower cut
        floors = []
        original = analysis._floors
        monkeypatch.setattr(analysis, "_floors",
                            lambda *args: floors.append(original(*args)) or floors[-1])
        calls = _closed_form_calls(monkeypatch)
        rng = np.random.default_rng(26)
        for a, d in zip(rng.uniform(0.0, 40.0, 12), rng.uniform(1e-3, 35.0, 12)):
            calls.clear()
            assert _result(search, a, d).converged
            walked = [np.size(l) for name, _, l in calls if name == "_x_abs"]
            assert 0 < walked[0] <= analysis._CUT_BLOCK
        assert all(floor > 0 for floor in floors)

    def test_a_walk_from_the_grids_first_point_keeps_a_full_block(self, monkeypatch):
        # no lower cut: the turn lies 157 points up the grid, in one call
        calls = _closed_form_calls(monkeypatch)
        find_crossover(0.5, 0.25)
        assert [np.size(l) for name, _, l in calls if name == "_x_abs"] == [analysis._SCAN_BLOCK]

    @pytest.mark.parametrize("search", [find_lmax, find_crossover])
    @pytest.mark.parametrize("a, d", [(0.5, 0.25), (20.0, 5.0)])
    def test_one_erfcx_evaluation_per_gap(self, monkeypatch, search, a, d):
        # (20, 5) is decided and valued in scaled form: P_A P_B underflows
        gaps = []
        original = closedform.erfcx_real
        monkeypatch.setattr(closedform, "erfcx_real",
                            lambda x: gaps.extend(np.ravel(x)) or original(x))
        search(a, d)
        assert sorted(gaps) == [a, a + d]


    @pytest.mark.parametrize("search", [find_lmax, find_crossover])
    @pytest.mark.parametrize("a, d", [(0.5, 0.25), (20.0, 5.0)])
    def test_the_refinement_runs_on_numpy_scalars(self, monkeypatch, search, a, d):
        # each Newton step of a one-problem search costs a few microseconds
        # on numpy scalars, about three times that on 0-d arrays
        args = []
        original = analysis._x_abs_slope
        monkeypatch.setattr(analysis, "_x_abs_slope",
                            lambda *x: args.extend(x) or original(*x))
        assert search(a, d).iterations > 0
        assert args and not any(isinstance(x, np.ndarray) for x in args)

    @pytest.mark.parametrize("a, l", [(0.5, 2.0), (3.9, 13.75)])
    def test_the_golden_section_runs_on_numpy_scalars(self, monkeypatch, a, l):
        # as the separation searches' refinement does: every probe and
        # every value of a one-problem gap search is a numpy scalar
        calls = _golden_calls(monkeypatch)
        assert find_optimal_gap(a, l).iterations > 0
        assert calls and all(isinstance(x, np.float64) for call in calls for x in call)

    # the public fields stay Python numbers, whatever form the inputs take
    @pytest.mark.parametrize("form", [float, np.float64, np.array])
    @pytest.mark.parametrize("search", [find_lmax, find_crossover, find_optimal_gap])
    def test_results_are_python_scalars(self, search, form):
        res = search(form(0.5), form(0.25 if search is not find_optimal_gap else 2.0))
        fields = (res.location, res.value, *res.bracket)
        assert all(type(x) is float for x in fields)
        assert type(res.iterations) is int and type(res.converged) is bool
        assert type(res.note) is str


class TestLastEvaluation:
    """After its refinement each search makes one Faddeeva call, over every
    row at once: both pairs at the location and the identical pair at the
    bracket's upper end for a crossover, the location for an lmax, the peak
    for a gap search.  Counted at the kernel, so that a value re-evaluating
    X's bracket shows."""

    @pytest.mark.parametrize("search, refinement, args, per_row", [
        (find_crossover, "_refine", (0.5, 0.25), 3),
        (find_crossover_many, "_refine", ([[0.5, 1.0, 1.2], [0.2, 20.0, 0.5]],
                                          [[0.25, 0.5, 1.44], [0.04, 5.0, 0.01]]), 3),
        (find_lmax, "_refine", (0.5, 0.25), 1),
        (find_lmax_many, "_refine", ([[0.5, 1.0, 1.2], [0.2, 20.0, 35.0]],
                                     [[0.25, 0.5, 1.44], [0.0, 5.0, 30.0]]), 1),
        (find_optimal_gap, "_golden", (0.5, 2.0), 1),
        (find_optimal_gap_many, "_golden", ([[0.5, 1.0, 1.2], [0.2, 0.7, 3.0]],
                                            [[2.0, 3.0, 1.0], [4.1, 1.94, 12.0]]), 1),
    ])
    def test_one_kernel_call_after_the_refinement(self, monkeypatch, search, refinement, args,
                                                  per_row):
        points, refined = [], []
        kernel, refine = closedform.faddeeva_w, getattr(analysis, refinement)
        monkeypatch.setattr(closedform, "faddeeva_w",
                            lambda z: points.append(np.size(z)) or kernel(z))

        def spy(*a, **k):
            result = refine(*a, **k)
            refined.append(len(points))
            return result

        monkeypatch.setattr(analysis, refinement, spy)
        search(*args)
        assert len(refined) == 1
        assert points[refined[0]:] == [per_row * np.size(args[0])]


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
        # one call of the closed forms' one Faddeeva evaluation
        calls = []
        original = closedform._x_terms
        monkeypatch.setattr(closedform, "_x_terms",
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
