"""Acceptance gate: every criterion at its stated tolerance, timed.

Each test prints one PASS line once its criterion holds; the final test
checks the combined runtime budget.  Criteria 1-3 certify the closed forms
against the integral oracles, criterion 4 the asymptotic expressions,
criteria 5-8 the qualitative survey claims as checkable inequalities, and
criterion 9 the cross-cutting property suites.
"""

import time

import numpy as np

from udwharvest import (
    DetectorPairConfig,
    OracleSettings,
    assemble_rho,
    asymptotic_concurrence,
    asymptotic_gm_probability,
    concurrence_values,
    correlation_excess,
    correlation_x,
    correlation_x_values,
    find_lmax,
    find_lmax_many,
    find_optimal_gap,
    find_optimal_gap_many,
    geometric_mean_probability,
    lmax_large_gap_estimate,
    pd_double_integral,
    sweep,
    transition_probability,
    x_double_integral,
    x_single_integral_pv,
)
from udwharvest.closedform import ConcurrenceRegime, GapRegime
from udwharvest.cli import build_figure
from udwharvest.specfun import faddeeva_w

GRID = [
    (a, a * r, l)
    for a in (0.2, 0.5, 1.2)
    for r in (0.0, 0.5, 1.2)
    for l in (0.5, 2.0, 6.0)
]

DURATIONS = {}


def _done(number, t0, detail=""):
    DURATIONS[number] = time.perf_counter() - t0
    print(f"ACCEPTANCE CRITERION {number}: PASS "
          f"({DURATIONS[number]:.2f}s{'; ' + detail if detail else ''})")


def test_criterion_1_pv_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for a, d, l in GRID:
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x_exact = correlation_x(cfg)
        x_pv = x_single_integral_pv(cfg)
        worst = max(worst, abs(x_pv - x_exact) / abs(x_exact))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _done(1, t0, f"worst rel {worst:.1e}")


def test_criterion_2_double_integral_oracle_agreement():
    t0 = time.perf_counter()
    worst = worst_paths = 0.0
    for a, d, l in GRID:
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x_exact = correlation_x(cfg)
        x_dbl = x_double_integral(cfg)
        worst = max(worst, abs(x_dbl - x_exact) / abs(x_exact))
        # the two oracle routes must also agree with each other
        x_pv = x_single_integral_pv(cfg)
        worst_paths = max(worst_paths, abs(x_dbl - x_pv) / abs(x_pv))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3, f"worst relative error {worst:.3e}"
    assert worst_paths <= 1e-3
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _done(2, t0, f"worst rel {worst:.1e}")


def test_criterion_3_probability_oracle_agreement():
    t0 = time.perf_counter()
    for gap in (0.0, 0.5, 2.0):
        p_oracle = pd_double_integral(gap, 0.1)
        p_exact = transition_probability(gap, 0.1)
        assert abs(p_oracle - p_exact) <= 1e-4 * p_exact, f"gap {gap}"
    anchor = pd_double_integral(0.0, 1.0)
    assert abs(anchor - 1.0 / (4.0 * np.pi)) <= 1e-4 / (4.0 * np.pi)
    _done(3, t0)


def test_criterion_4_asymptotics():
    t0 = time.perf_counter()
    # small-separation concurrence estimate
    for d in (0.0, 0.25):
        cfg = DetectorPairConfig(0.5, d, 0.02, 0.1)
        approx = asymptotic_concurrence(cfg, ConcurrenceRegime.SMALL_SEPARATION)
        exact = 2.0 * max(0.0, float(correlation_excess(0.5, d, 0.02, 0.1)))
        assert abs(approx - exact) <= 0.03 * exact
    # large-gap geometric-mean estimate
    cfg = DetectorPairConfig(5.0, 0.0, 1.0, 0.1)
    approx = asymptotic_gm_probability(cfg, GapRegime.LARGE_GAPS)
    exact = geometric_mean_probability(5.0, 0.0, 0.1)
    assert abs(approx - exact) <= 0.01 * exact
    # harvesting-range estimate against the located boundary
    for d in (0.0, 2.0):
        est = lmax_large_gap_estimate(4.0, d)
        root = find_lmax(4.0, d).location
        assert abs(root - est) <= 0.10 * root, (d, est, root)
    _done(4, t0)


def _crossovers_from_curves(ls, curves):
    """First emitted separation where each non-identical curve exceeds the
    identical one while both still harvest; None when there is none."""
    c0 = curves[0]
    out = []
    for cd in curves[1:]:
        hit = np.flatnonzero((cd > c0) & (c0 > 0.0))
        out.append(float(ls[hit[0]]) if hit.size else None)
    return out


def test_criterion_5_separation_survey():
    t0 = time.perf_counter()
    locations = {}
    for name, a in (("fig1a", 0.5), ("fig1b", 1.2)):
        _, _, columns, arrays = build_figure(name, points=200)
        ls = arrays[0]
        curves = arrays[1:]
        # identical detectors win at every emitted separation below one
        near = ls < 1.0
        for cd in curves[1:]:
            assert np.all(curves[0][near] > cd[near]), name
        # crossovers exist for every gap ratio and move out with the ratio
        locs = _crossovers_from_curves(ls, curves)
        assert all(x is not None for x in locs), name
        assert all(b > a_ for a_, b in zip(locs, locs[1:])), (name, locs)
        locations[a] = locs
    # the larger smaller-gap pushes every crossover to larger separation
    assert all(b > a_ for a_, b in zip(locations[0.5], locations[1.2]))
    _done(5, t0)


def test_criterion_6_gap_survey_peak():
    t0 = time.perf_counter()
    peak = find_optimal_gap(0.5, 2.0)
    assert peak.location > 0.0
    # the concurrence peak sits where the excess peaks, to grid resolution
    ds = np.arange(0.0, 4.0, 5e-4)
    excess = correlation_excess(0.5, ds, 2.0, 0.1)
    assert abs(peak.location - float(ds[np.argmax(excess)])) <= 1e-3
    # narrow separation: monotone decrease, boundary maximum
    narrow = find_optimal_gap(0.5, 0.5)
    assert narrow.location == 0.0
    dgrid = np.linspace(0.0, 2.0, 200)
    assert np.all(np.diff(concurrence_values(0.5, dgrid, 0.5, 0.1)) < 0.0)
    _done(6, t0)


def test_criterion_7_peak_location_survey():
    t0 = time.perf_counter()
    # the emitted survey range; above it the harvesting window in the gap
    # difference fragments and a single drifting peak no longer exists
    ls = np.linspace(0.5, 4.1, 23)
    gaps = (0.2, 0.5, 1.0, 1.2)
    peaks = find_optimal_gap_many(np.array(gaps)[:, None], ls, 0.1).location
    onsets = []
    for a, locs in zip(gaps, peaks):
        interior = locs > 0.0
        assert interior.any(), a
        onset = int(np.argmax(interior))
        # interior peaks persist and grow strictly once they appear
        assert interior[onset:].all(), a
        assert np.all(np.diff(locs[onset:]) > 0.0), a
        onsets.append(onset)
    assert all(b >= a_ for a_, b in zip(onsets, onsets[1:]))
    assert onsets[-1] > onsets[0]
    _done(7, t0)


def test_criterion_8_harvesting_range_survey():
    t0 = time.perf_counter()
    ratios = np.linspace(0.0, 3.0, 25)
    gaps = np.array([0.2, 0.5, 1.2])[:, None]
    batch = find_lmax_many(gaps, gaps * ratios, 0.1)
    assert (batch.error == "").all()
    lmax = dict(zip((0.2, 0.5, 1.2), batch.location))
    for a in (0.2, 0.5):
        assert np.all(np.diff(lmax[a]) > 0.0), a
    osc = lmax[1.2]
    assert np.any(np.diff(osc) < 0.0)
    assert osc.min() < osc[0]
    _done(8, t0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)

    # error-function identities
    r = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
    phi = rng.uniform(0.0, np.pi, 1000)
    z = r * np.cos(phi) - 1j * r * np.sin(phi)
    resid = np.abs(faddeeva_w(-z) - (2.0 * np.exp(-z * z) - faddeeva_w(z)))
    assert np.all(resid <= 1e-9 * np.maximum(1.0, np.abs(faddeeva_w(z))))
    zc = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
    conj_resid = np.abs(faddeeva_w(np.conj(-zc)) - np.conj(faddeeva_w(zc)))
    assert np.all(conj_resid <= 1e-10 * np.maximum(1.0, np.abs(faddeeva_w(zc))))

    # quadratic homogeneity and swap symmetry
    for _ in range(25):
        a = rng.uniform(0.0, 2.0)
        d = rng.uniform(0.0, 2.0)
        l = rng.uniform(0.3, 6.0)
        p1 = transition_probability(a, 0.05)
        p2 = transition_probability(a, 0.2)
        assert abs(p2 - 16.0 * p1) <= 1e-14 * p2
        x1 = correlation_x_values(a, d, l, 0.05)
        x2 = correlation_x_values(a, d, l, 0.2)
        assert abs(abs(x2) - 16.0 * abs(x1)) <= 1e-14 * abs(x2)
        c1 = concurrence_values(a, d, l, 0.05)
        c2 = concurrence_values(a, d, l, 0.2)
        assert abs(c2 - 16.0 * c1) <= 1e-14 * max(c2, 1e-300)
        x_rev = correlation_x_values(a + d, -d, l, 0.05)
        assert abs(x1 - x_rev) <= 1e-12 * abs(x1)

    # probability monotone in the gap, concurrence clamped
    xs = np.linspace(0.0, 5.0, 100)
    assert np.all(np.diff(transition_probability(xs, 0.1)) < 0.0)
    aa = rng.uniform(0.0, 2.0, 300)
    dd = rng.uniform(0.0, 2.0, 300)
    ll = rng.uniform(0.2, 12.0, 300)
    assert np.all(concurrence_values(aa, dd, ll, 0.1) >= 0.0)

    # sweeps are deterministic: any chunking of the axis reproduces the whole
    base = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
    axis = np.linspace(0.3, 5.0, 64)
    whole = sweep("l_over_sigma", axis, base).concurrences()
    for n_chunks in (2, 3):
        parts = [
            sweep("l_over_sigma", c, base).concurrences()
            for c in np.array_split(axis, n_chunks)
        ]
        assert whole.tolist() == np.concatenate(parts).tolist()

    # assembled joint state is Hermitian with unit trace
    for a, d, l in [(0.5, 0.25, 2.0), (1.2, 0.6, 1.0)]:
        m = assemble_rho(DetectorPairConfig(a, d, l, 0.1)).entries
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert abs(np.trace(m) - 1.0) <= 1e-10
    _done(9, t0)


def test_criterion_10_runtime_budget():
    missing = [n for n in range(1, 10) if n not in DURATIONS]
    assert not missing, f"criteria not timed: {missing}"
    total = sum(DURATIONS.values())
    assert total < 900.0, f"criteria took {total:.0f}s"
    print(f"ACCEPTANCE CRITERION 10: PASS (criteria 1-9 in {total:.1f}s)")
