"""Closed forms: reductions, symmetries, asymptotics, oracle agreement."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfi

from udwharvest import (
    ConcurrenceRegime,
    DetectorPairConfig,
    GapRegime,
    Method,
    OracleSettings,
    SeparationRegime,
    asymptotic_concurrence,
    asymptotic_gm_probability,
    asymptotic_x,
    concurrence,
    concurrence_gap_derivative_estimate,
    concurrence_values,
    correlation_x,
    correlation_x_values,
    find_lmax,
    find_optimal_gap,
    geometric_mean_probability,
    lmax_large_gap_estimate,
    pd_double_integral,
    transition_probability,
    x_single_integral_pv,
)
from udwharvest import analysis
from udwharvest.closedform import _ZW_BOUND, _x_envelope

FOUR_PI = 4.0 * np.pi
SQRT_PI = np.sqrt(np.pi)

# regulator schedule fine enough for 1e-6 closed-form-vs-oracle comparisons
FINE = OracleSettings(epsilon_schedule=(0.04, 0.02, 0.01, 0.005))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DetectorPairConfig(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(0.5, -0.1, 1.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(0.5, 36.0, 1.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(0.5, 0.0, -2.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(0.5, 0.0, 1.0, coupling=0.0)
        with pytest.raises(ValueError):
            DetectorPairConfig(np.inf, 0.0, 1.0)

    def test_warns_on_strong_coupling(self):
        with pytest.warns(UserWarning):
            DetectorPairConfig(0.5, 0.0, 1.0, coupling=0.5)

    def test_strong_coupling_warning_names_the_caller(self):
        # one frame shallower, it named the dataclass-generated __init__
        # ("<string>:7")
        with pytest.warns(UserWarning) as record:
            DetectorPairConfig(0.5, 0.0, 1.0, coupling=0.5)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("build", [
        lambda: DetectorPairConfig(0.5, 0.25, 2.0, 1.0),
        lambda: DetectorPairConfig.with_omega_b(0.5, 0.75, 2.0, 1.0),
    ], ids=["direct", "with_omega_b"])
    def test_strong_coupling_warning_names_the_caller_of_each_constructor(self, build):
        # through with_omega_b, a fixed stacklevel named its own cls(...)
        # line in closedform.py
        with pytest.warns(UserWarning, match="weak-coupling") as record:
            build()
        assert len(record) == 1 and record[0].filename == __file__

    def test_omega_b_constructor(self):
        cfg = DetectorPairConfig.with_omega_b(0.5, 0.75, 2.0)
        assert cfg.delta_omega_sigma == 0.25
        assert cfg.omega_b_sigma == 0.75
        with pytest.raises(ValueError):
            DetectorPairConfig.with_omega_b(0.75, 0.5, 2.0)


class TestTransitionProbability:
    def test_zero_gap_value(self):
        assert transition_probability(0.0, 1.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-15)

    def test_large_gap_suppression(self):
        p10 = transition_probability(10.0, 1.0)
        assert p10 < 1e-4 * transition_probability(0.0, 1.0)
        leading = np.exp(-100.0) / (8.0 * np.pi * 100.0)
        assert p10 == pytest.approx(leading, rel=2e-2)

    def test_against_regulated_double_integral(self):
        p_oracle = pd_double_integral(0.5, 0.1, FINE)
        assert transition_probability(0.5, 0.1) == pytest.approx(p_oracle, rel=1e-6)

    def test_inverted_gap_admitted(self):
        # detailed-balance-like offset for a negative gap
        lam = 0.3
        p_neg = transition_probability(-1.0, lam)
        p_pos = transition_probability(1.0, lam)
        assert p_neg == pytest.approx(p_pos + lam**2 / (2.0 * SQRT_PI), rel=1e-14)
        assert p_neg > 0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.3, 2.0, 7.5])
        vec = transition_probability(xs, 0.1)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert transition_probability(float(x), 0.1) == v


class TestCorrelationX:
    def test_equal_gap_reduction(self):
        # at zero gap difference the bracket collapses to Erfi(l/2) + i
        a, l, lam = 0.5, 1.0, 0.1
        expected = (
            -(lam**2 / (4.0 * SQRT_PI * l))
            * np.exp(-a * a - l * l / 4.0)
            * (erfi(l / 2.0) + 1j)
        )
        got = correlation_x(DetectorPairConfig(a, 0.0, l, lam))
        assert abs(got - expected) < 1e-14 * abs(expected)

    def test_swap_symmetry_pointwise(self):
        # exchanging the roles (a -> a+d, d -> -d) fixes the gap sum
        x1 = correlation_x_values(0.3, 0.4, 1.7, 0.1)
        x2 = correlation_x_values(0.7, -0.4, 1.7, 0.1)
        assert abs(x1 - x2) <= 1e-12 * abs(x1)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            correlation_x_values(0.5, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            correlation_x_values(0.5, 0.0, -1.0, 0.1)

    def test_against_pv_oracle(self):
        cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)
        x_oracle = x_single_integral_pv(cfg)
        assert abs(correlation_x(cfg) - x_oracle) <= 1e-8 * abs(x_oracle)


class TestXEnvelope:
    """``_x_envelope`` bounds |X| without a Faddeeva evaluation: the
    separation scans skip every point where it lies below sqrt(P_A P_B)."""

    def test_zw_bound_is_the_rounded_up_supremum_on_the_real_line(self):
        def zw(x):
            return abs(x * mp.exp(-x * x) * mp.erfc(-1j * x))

        with mp.workdps(20):
            sup = zw(mp.findroot(lambda x: mp.diff(zw, x), 1.33))
            assert sup <= _ZW_BOUND <= sup + 1e-4
            # no real point beats the stationary one: |x w(x)| is even in x,
            # 0 at 0, and falls toward 1/sqrt(pi) from above beyond the samples
            assert all(zw(mp.mpf(x)) <= sup for x in np.linspace(0.0, 60.0, 1201))

    @pytest.mark.parametrize("coupling", [0.1, 1.0])
    def test_envelope_bounds_x_across_the_domain(self, coupling):
        a = np.linspace(0.0, 40.0, 81)[:, None, None]
        d = np.linspace(0.0, 35.0, 71)[None, :, None]
        l = np.geomspace(0.01, 440.0, 500)
        x = np.abs(correlation_x_values(a, d, l, coupling))
        env = _x_envelope(a, d, l, coupling)
        # the bound is exact; the computed values may cross it by a few
        # roundings, or by one unit of 2^-1074 where they are subnormal
        assert np.all(x <= env * (1.0 + 1e-12) + 4.0 * 2.0**-1074)
        assert np.all(np.diff(env, axis=-1) <= 0.0)
        assert (x > 0.0).any() and (env > 0.0).any()


class TestConcurrence:
    def test_vanishes_far_out(self):
        for d in (0.0, 0.25, 0.6):
            assert concurrence(DetectorPairConfig(0.5, d, 50.0, 0.1)).concurrence == 0.0

    def test_quadratic_coupling_scaling(self):
        r1 = concurrence(DetectorPairConfig(0.5, 0.25, 1.5, 0.1))
        r2 = concurrence(DetectorPairConfig(0.5, 0.25, 1.5, 0.2))
        assert r2.concurrence == pytest.approx(4.0 * r1.concurrence, rel=1e-14)

    def test_report_consistency(self):
        cfg = DetectorPairConfig(0.7, 0.3, 1.2, 0.1)
        rep = concurrence(cfg)
        assert rep.method is Method.CLOSED_FORM
        assert rep.concurrence == 2.0 * max(0.0, rep.x_abs - rep.geometric_mean)
        assert rep.p_a >= rep.p_b
        assert rep.c_corr is None
        rng = np.random.default_rng(11)
        for a, d, l in zip(rng.uniform(0, 3, 500), rng.uniform(0, 3, 500),
                           rng.uniform(0.05, 6, 500)):
            rep = concurrence(DetectorPairConfig(a, d, l, 0.1))
            assert rep.concurrence == 2.0 * max(0.0, rep.x_abs - rep.geometric_mean), (a, d, l)

    def test_against_full_oracle_pipeline(self):
        cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)
        p_a = pd_double_integral(cfg.omega_a_sigma, cfg.coupling, FINE)
        p_b = pd_double_integral(cfg.omega_b_sigma, cfg.coupling, FINE)
        x = x_single_integral_pv(cfg, FINE)
        oracle_conc = 2.0 * max(0.0, abs(x) - np.sqrt(p_a * p_b))
        got = concurrence(cfg).concurrence
        assert got > 0
        assert got == pytest.approx(oracle_conc, rel=1e-6)


class TestAsymptotics:
    def test_small_gap_gm_at_origin(self):
        with pytest.warns(UserWarning):  # unit coupling is deliberately extreme
            cfg = DetectorPairConfig(0.0, 0.0, 1.0, 1.0)
        assert asymptotic_gm_probability(cfg, GapRegime.SMALL_GAPS) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-15
        )

    def test_large_gap_gm_accuracy(self):
        cfg = DetectorPairConfig(5.0, 0.0, 1.0, 0.1)
        approx = asymptotic_gm_probability(cfg, GapRegime.LARGE_GAPS)
        exact = geometric_mean_probability(5.0, 0.0, 0.1)
        assert approx == pytest.approx(exact, rel=1e-2)

    def test_small_gap_gm_formula_and_convergence(self):
        # the small-gap form drops a term linear in the gap, so its usable
        # window is narrow: percent-level accuracy only below gap ~ 0.004
        cfg = DetectorPairConfig(0.05, 0.05, 1.0, 0.1)
        got = asymptotic_gm_probability(cfg, GapRegime.SMALL_GAPS)
        assert got == pytest.approx(
            0.1**2 / FOUR_PI * np.exp(-(0.05**2 + 0.1**2) / 2.0), rel=1e-14
        )
        errors = []
        for ad in (0.05, 0.01, 0.002):
            c = DetectorPairConfig(ad, ad, 1.0, 0.1)
            approx = asymptotic_gm_probability(c, GapRegime.SMALL_GAPS)
            exact = geometric_mean_probability(ad, ad, 0.1)
            errors.append(abs(approx - exact) / exact)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2

    def test_x_small_separation_equal_gaps_bracket(self):
        a, l, lam = 0.4, 0.05, 0.1
        cfg = DetectorPairConfig(a, 0.0, l, lam)
        expected = (
            -(lam**2) * np.exp(-(a * 2.0) ** 2 / 4.0) / (4.0 * SQRT_PI) * (1j / l + 1.0 / SQRT_PI)
        )
        assert asymptotic_x(cfg, SeparationRegime.SMALL_SEPARATION) == pytest.approx(expected)

    def test_x_large_separation_accuracy(self):
        cfg = DetectorPairConfig(1.0, 0.5, 10.0, 0.1)
        approx = asymptotic_x(cfg, SeparationRegime.LARGE_SEPARATION)
        exact = correlation_x(cfg)
        assert abs(approx - exact) <= 0.05 * abs(exact)

    def test_x_small_separation_accuracy(self):
        cfg = DetectorPairConfig(0.5, 0.0, 0.02, 0.1)
        approx = asymptotic_x(cfg, SeparationRegime.SMALL_SEPARATION)
        exact = correlation_x(cfg)
        assert abs(approx - exact) <= 0.02 * abs(exact)

    def test_concurrence_small_gap_branch_clamps(self):
        for l in (1.5, 5.0):
            cfg = DetectorPairConfig(0.1, 0.1, l, 0.1)
            assert (
                asymptotic_concurrence(cfg, ConcurrenceRegime.LARGE_SEPARATION_SMALL_GAPS)
                == 0.0
            )
        cfg = DetectorPairConfig(0.1, 0.1, 1.2, 0.1)
        assert (
            asymptotic_concurrence(cfg, ConcurrenceRegime.LARGE_SEPARATION_SMALL_GAPS) > 0.0
        )

    def test_concurrence_small_separation_accuracy(self):
        for d in (0.0, 0.25):
            cfg = DetectorPairConfig(0.5, d, 0.02, 0.1)
            approx = asymptotic_concurrence(cfg, ConcurrenceRegime.SMALL_SEPARATION)
            exact = concurrence(cfg).concurrence
            assert approx == pytest.approx(exact, rel=3e-2)

    def test_concurrence_large_gap_branch(self):
        # positive just under the harvesting-range estimate; the branch's
        # relative accuracy degrades toward its own zero, so the 10% check
        # sits at larger gaps and mid-range separation
        est = lmax_large_gap_estimate(3.0, 1.0)
        cfg = DetectorPairConfig(3.0, 1.0, 0.98 * est, 0.1)
        approx = asymptotic_concurrence(cfg, ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS)
        assert approx > 0.0
        assert concurrence(cfg).concurrence > 0.0

        est5 = lmax_large_gap_estimate(5.0, 1.0)
        cfg5 = DetectorPairConfig(5.0, 1.0, 0.65 * est5, 0.1)
        approx5 = asymptotic_concurrence(cfg5, ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS)
        exact5 = concurrence(cfg5).concurrence
        assert approx5 > 0.0
        assert approx5 == pytest.approx(exact5, rel=0.10)


class TestEstimates:
    def test_lmax_estimate_equal_gaps(self):
        assert lmax_large_gap_estimate(4.0, 0.0) == pytest.approx(8.0, rel=1e-15)

    def test_lmax_estimate_monotone_in_gap_difference(self):
        assert lmax_large_gap_estimate(3.0, 1.0) > lmax_large_gap_estimate(3.0, 0.0)

    def test_lmax_estimate_vs_root(self):
        est = lmax_large_gap_estimate(4.0, 2.0)
        root = find_lmax(4.0, 2.0).location
        assert abs(root - est) <= 0.10 * root

    def test_gap_derivative_sign_large_separation(self):
        cfg = DetectorPairConfig(0.5, 0.0, 100.0, 0.1)
        assert concurrence_gap_derivative_estimate(cfg) > 0.0

    def test_gap_derivative_sign_small_separation(self):
        cfg = DetectorPairConfig(0.5, 0.0, 0.1, 0.1)
        assert concurrence_gap_derivative_estimate(cfg) < 0.0

    def test_gap_derivative_zero_tracks_peak(self):
        ds = np.linspace(0.0, 3.0, 30001)
        vals = np.array(
            [
                concurrence_gap_derivative_estimate(DetectorPairConfig(0.5, d, 2.0, 0.1))
                for d in ds
            ]
        )
        crossing = ds[int(np.argmax(vals < 0.0))]
        peak = find_optimal_gap(0.5, 2.0).location
        assert abs(crossing - peak) <= 0.25 * peak


def _bits(values):
    return np.asarray(values).tobytes()


class TestScalarArrayBitwise:
    """A point's closed-form values do not depend on the shape of the call:
    scalar calls, one array call over scattered points, and one-axis
    broadcast calls of the kind sweeps make give the same bits."""

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_scalar_calls_equal_array_calls(self, lam):
        # eight base scenarios over the admitted domain, each moved along
        # every axis in turn: 1440 points
        rng = np.random.default_rng(2024)
        lows, highs = np.array([0.0, 0.0, 0.05]), np.array([40.0, 35.0, 120.0])
        bases = rng.uniform(lows, highs, (8, 3))
        points = []
        for base in bases:
            for axis in range(3):
                block = np.repeat(base[None], 60, axis=0)
                block[:, axis] = np.sort(rng.uniform(lows[axis], highs[axis], 60))
                points.append(block)
        pts = np.concatenate(points)
        a, d, l = pts.T
        p_a = transition_probability(a, lam)
        p_b = transition_probability(a + d, lam)
        x = correlation_x_values(a, d, l, lam)
        conc = concurrence_values(a, d, l, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coupling 1 is outside the weak regime
            reports = [concurrence(DetectorPairConfig(*p, lam)) for p in pts.tolist()]
        scalar_conc = [concurrence_values(*p, lam) for p in pts.tolist()]
        assert _bits([transition_probability(v, lam) for v in a.tolist()]) == _bits(p_a)
        assert _bits([correlation_x_values(*p, lam) for p in pts.tolist()]) == _bits(x)
        assert _bits(scalar_conc) == _bits(conc)
        assert _bits([r.p_a for r in reports]) == _bits(p_a)
        assert _bits([r.p_b for r in reports]) == _bits(p_b)
        assert _bits([r.x for r in reports]) == _bits(x)
        assert _bits([r.concurrence for r in reports]) == _bits(conc)
        for k, block in enumerate(points):
            axis = k % 3
            args = [float(v) for v in block[0]]
            args[axis] = block[:, axis]
            want = scalar_conc[60 * k: 60 * (k + 1)]
            assert _bits(concurrence_values(*args, lam)) == _bits(want), block[0]

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_row_chunks_equal_per_row_calls(self, lam):
        # the call shape of a chunk of search rows: a (rows, points) grid
        # along one axis, the row-constant operands as (rows, 1) columns
        rng = np.random.default_rng(12)
        rows, points = 24, 256
        a = rng.uniform(0.0, 40.0, rows)
        d = rng.uniform(0.0, 35.0, rows)
        l = rng.uniform(0.05, 120.0, rows)
        a[:4], d[:4] = [0.2, 0.5, 1.0, 1.2], [0.0, 0.25, 1.5, 3.6]  # the survey's gaps
        p_a = transition_probability(a, lam)
        gm = geometric_mean_probability(a, d, lam)
        # gap scans: the gap difference runs along the rows
        gaps = np.sort(rng.uniform(0.0, 35.0, (rows, points)), axis=-1)
        p_b = transition_probability(a[:, None] + gaps, lam)
        x = correlation_x_values(a[:, None], gaps, l[:, None], lam)
        conc = analysis._gap_concurrence(p_a[:, None], a[:, None], gaps, l[:, None], lam)
        for i in range(rows):
            assert _bits(p_b[i]) == _bits(transition_probability(a[i] + gaps[i], lam))
            assert _bits(x[i]) == _bits(correlation_x_values(a[i], gaps[i], l[i], lam))
            assert _bits(conc[i]) == _bits(concurrence_values(a[i], gaps[i], l[i], lam))
        # separation scans: the separation runs along the rows
        seps = np.sort(rng.uniform(0.01, 120.0, (rows, points)), axis=-1)
        x = correlation_x_values(a[:, None], d[:, None], seps, lam)
        conc = analysis._clamp(analysis._excess(gm[:, None], a[:, None], d[:, None], seps, lam))
        for i in range(rows):
            assert _bits(x[i]) == _bits(correlation_x_values(a[i], d[i], seps[i], lam))
            assert _bits(conc[i]) == _bits(concurrence_values(a[i], d[i], seps[i], lam))
        assert (conc > 0.0).any() and (conc == 0.0).any()

    def test_row_chunk_grids_equal_per_row_grids(self):
        # a gap scan chunk's linspace grid, and a separation scan chunk's
        # first blocks gathered from its rows' grids padded with their last
        # points, are the rows' own grid points
        bounds = np.random.default_rng(3).uniform(0.05, 80.0, 40)
        chunk = np.linspace(0.0, bounds, 256, axis=-1)
        for b, row in zip(bounds, chunk):
            assert _bits(row) == _bits(np.linspace(0.0, b, 256))
        step = 0.01
        grids = [np.arange(b, 0.5 * step, -step) for b in bounds]
        sizes = np.array([g.size for g in grids])
        padded = np.empty((sizes.size, sizes.max()))
        for g, row in zip(grids, padded):
            row[:g.size], row[g.size:] = g, g[-1]
        start = (sizes * np.linspace(0.0, 1.0, 40)).astype(int) // 2  # each row's walk start
        stop = np.minimum(start + 300, sizes)
        idx = np.minimum(start[:, None] + np.arange(256), stop[:, None] - 1)
        gathered = np.take_along_axis(padded, idx, axis=1)
        for i, g in enumerate(grids):
            walk = g[start[i]:stop[i]][:256]
            assert _bits(gathered[i, :walk.size]) == _bits(walk)
            assert (gathered[i, walk.size:] == g[stop[i] - 1]).all()


class TestProperties:
    def test_probability_strictly_decreasing(self):
        xs = np.linspace(0.0, 5.0, 100)
        assert np.all(np.diff(transition_probability(xs, 0.1)) < 0.0)

    def test_probability_positive_over_representable_range(self):
        # beyond gap ~27.5 the true value leaves the double range entirely
        xs = np.linspace(-30.0, 26.0, 1000)
        assert np.all(transition_probability(xs, 0.1) > 0.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.uniform(0.0, 2.0)
            d = rng.uniform(0.0, 2.0)
            l = rng.uniform(0.2, 6.0)
            lam1, lam2 = 0.05, 0.2
            ratio = (lam2 / lam1) ** 2
            p1 = transition_probability(a, lam1)
            p2 = transition_probability(a, lam2)
            assert p2 == pytest.approx(ratio * p1, rel=1e-14)
            x1 = correlation_x_values(a, d, l, lam1)
            x2 = correlation_x_values(a, d, l, lam2)
            assert abs(x2) == pytest.approx(ratio * abs(x1), rel=1e-14)
            c1 = concurrence_values(a, d, l, lam1)
            c2 = concurrence_values(a, d, l, lam2)
            if c1 > 0:
                assert c2 == pytest.approx(ratio * c1, rel=1e-14)

    def test_swap_symmetry_random(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            a = rng.uniform(0.0, 1.5)
            d = rng.uniform(0.0, 1.5)
            l = rng.uniform(0.3, 5.0)
            x_fwd = correlation_x_values(a, d, l, 0.1)
            x_rev = correlation_x_values(a + d, -d, l, 0.1)
            assert abs(x_fwd - x_rev) <= 1e-12 * max(abs(x_fwd), 1e-300)
            gm_fwd = geometric_mean_probability(a, d, 0.1)
            gm_rev = geometric_mean_probability(a + d, -d, 0.1)
            assert gm_fwd == pytest.approx(gm_rev, rel=1e-12)

    def test_clamp(self):
        rng = np.random.default_rng(99)
        a = rng.uniform(0.0, 2.0, 200)
        d = rng.uniform(0.0, 2.0, 200)
        l = rng.uniform(0.2, 12.0, 200)
        conc = concurrence_values(a, d, l, 0.1)
        assert np.all(conc >= 0.0)
        excess = np.abs(correlation_x_values(a, d, l, 0.1)) - geometric_mean_probability(
            a, d, 0.1
        )
        assert np.all((conc == 0.0) == (excess <= 0.0))

    def test_concurrence_nonincreasing_in_separation(self):
        for a in (0.5, 1.2):
            for ratio in (0.0, 0.2, 0.5, 1.0, 1.2):
                lmax = find_lmax(a, a * ratio).location
                ls = np.linspace(0.3, lmax * 0.9999, 300)
                conc = concurrence_values(a, a * ratio, ls, 0.1)
                assert np.all(np.diff(conc) <= 0.0), (a, ratio)
