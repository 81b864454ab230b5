"""Closed forms: reductions, symmetries, asymptotics, oracle agreement."""

import dataclasses
import functools
import re
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfi

from udwharvest import (
    ConcurrenceRegime,
    DetectorPairConfig,
    GapRegime,
    HarvestReport,
    OracleSettings,
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
    find_lmax,
    find_optimal_gap,
    geometric_mean_probability,
    lmax_large_gap_estimate,
    pd_double_integral,
    transition_probability,
    x_single_integral_pv,
)
from udwharvest import analysis, closedform
from udwharvest.closedform import (
    _SCALED_BELOW, _ZW3_BOUND, _ZW_BOUND, _clamp, _gap_half, _halves, _ingredients, _probability,
    _probability_bracket, _scaled_gm, _scaled_probability, _scaled_x_envelope, _scaled_x_floor,
    _separation_half, _x, _x_abs, _x_abs_slope, _x_bracket, _x_gauss,
)

# the benchmark's 50-digit reference, imported by path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402

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

    # P_A P_B overflowed from a coupling of about 4.1e77 on: at 1e78,
    # concurrence() reported 0 and a geometric mean of inf, and from about
    # 1.3e154 on coupling**2 raised OverflowError
    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    def test_coupling_bound_is_where_the_largest_product_overflows(self):
        bound = closedform._MAX_COUPLING
        above = float(np.nextafter(bound, np.inf))
        # (coupling^2/4 pi)^2, P at zero gap squared, is finite at the bound
        # and overflows one ulp above it
        p = np.float64(transition_probability(0.0, bound))
        assert np.isfinite(p * p)
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.float64(transition_probability(0.0, above)) ** 2
        for cfg in (DetectorPairConfig(0.0, 0.0, 1.0, bound),
                    DetectorPairConfig(0.5, 0.25, 1.0, bound)):
            report = concurrence(cfg)
            assert np.isfinite(report.geometric_mean) and report.concurrence > 0.0
            weak = concurrence(DetectorPairConfig(cfg.omega_a_sigma, cfg.delta_omega_sigma, 1.0))
            assert report.concurrence / bound**2 == pytest.approx(weak.concurrence / 0.01,
                                                                   rel=1e-12)
        message = f"coupling={above!r} exceeds {bound!r}; P_A P_B"
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectorPairConfig(0.5, 0.25, 1.0, above)

    # above the bound X's prefactor squared 2a + d to inf:
    # concurrence(DetectorPairConfig(6.703903964971299e153, 0.5, 1.0)) raised
    # "RuntimeWarning: overflow encountered in scalar multiply"
    def test_omega_a_bound_is_where_the_prefactor_square_overflows(self):
        bound = closedform._MAX_OMEGA_A
        above = float(np.nextafter(bound, np.inf))
        for d in (0.0, 35.0):
            assert np.isfinite((np.float64(2.0 * bound) + d) ** 2)
            with pytest.raises(RuntimeWarning, match="overflow"):
                (np.float64(2.0 * above) + d) ** 2
        message = (f"omega_a_sigma={above!r} exceeds {bound!r} = sqrt(largest double)/2; "
                   "(2 omega_a_sigma + delta_omega_sigma)^2 in X's prefactor would overflow")
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectorPairConfig(above, 0.5, 1.0)

    @pytest.mark.parametrize("d", [0.0, 0.5, 35.0])
    @pytest.mark.parametrize("l", [1e-3, 1.0, 50.0])
    def test_closed_forms_answer_at_the_omega_a_bound(self, d, l):
        a = closedform._MAX_OMEGA_A
        cfg = DetectorPairConfig(a, d, l, 0.1)
        assert transition_probability(a, 0.1) == 0.0
        assert geometric_mean_probability(a, d, 0.1) == 0.0
        assert correlation_x_values(a, d, l, 0.1) == 0.0 and correlation_x(cfg) == 0.0
        assert correlation_excess(a, d, l, 0.1) == 0.0 == concurrence_values(a, d, l, 0.1)
        report = concurrence(cfg)
        assert (report.p_a, report.p_b, report.x, report.concurrence) == (0.0, 0.0, 0.0, 0.0)
        for regime in GapRegime:
            assert np.isfinite(asymptotic_gm_probability(cfg, regime))
        for regime in SeparationRegime:
            assert np.isfinite(asymptotic_x(cfg, regime))
        for regime in ConcurrenceRegime:
            assert np.isfinite(asymptotic_concurrence(cfg, regime))
        assert np.isfinite(lmax_large_gap_estimate(a, d))
        assert np.isfinite(concurrence_gap_derivative_estimate(cfg))

    # above the bound l*l overflowed:
    # concurrence(DetectorPairConfig(0.5, 0.5, 1.3407807929942597e154)) raised
    # "RuntimeWarning: overflow encountered in scalar multiply"
    def test_separation_bound_is_where_its_square_overflows(self):
        bound = closedform._MAX_SEPARATION
        above = float(np.nextafter(bound, np.inf))
        assert np.isfinite(np.float64(bound) * bound)
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.float64(above) * above
        message = (f"l_over_sigma={above!r} exceeds {bound!r} = sqrt(largest double); "
                   "l_over_sigma^2 would overflow double precision")
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectorPairConfig(0.5, 0.5, above)

    # a > 0: the large-gap asymptotic divides by a (a + d) at any separation
    @pytest.mark.parametrize("d", [0.0, 0.5, 35.0])
    @pytest.mark.parametrize("a", [0.5, 30.0, closedform._MAX_OMEGA_A])
    def test_closed_forms_answer_at_the_separation_bound(self, a, d):
        l = closedform._MAX_SEPARATION
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x = correlation_x_values(a, d, l, 0.1)
        assert np.isfinite(x) and correlation_x(cfg) == x
        assert np.isfinite(correlation_excess(a, d, l, 0.1))
        assert concurrence_values(a, d, l, 0.1) == 0.0
        report = concurrence(cfg)
        assert report.x == x and report.concurrence == 0.0
        for regime in GapRegime:
            assert np.isfinite(asymptotic_gm_probability(cfg, regime))
        for regime in SeparationRegime:
            assert np.isfinite(asymptotic_x(cfg, regime))
        for regime in ConcurrenceRegime:
            assert np.isfinite(asymptotic_concurrence(cfg, regime))
        assert np.isfinite(concurrence_gap_derivative_estimate(cfg))

    # below the floor the concurrence overflowed: concurrence_values(0.5,
    # 0.25, 1e-312, 0.1) raised "RuntimeWarning: overflow encountered in
    # scalar divide".  At the floor, at zero gaps and the largest coupling,
    # it is the largest double; one ulp below, its arithmetic overflows
    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    def test_separation_floor_is_where_the_largest_concurrence_overflows(self):
        floor, coupling = closedform._MIN_SEPARATION, closedform._MAX_COUPLING
        below = float(np.nextafter(floor, 0.0))
        assert floor == 2.0 * SQRT_PI / np.sqrt(np.finfo(float).max)
        report = concurrence(DetectorPairConfig(0.0, 0.0, floor, coupling))
        assert report.concurrence == np.finfo(float).max
        assert concurrence_values(0.0, 0.0, floor, coupling) == report.concurrence
        gm = transition_probability(0.0, coupling)
        for l in (floor, below):
            b_re, b_im = _x_bracket(np.float64(0.0), np.float64(l))[:2]
            x_abs = coupling**2 / (8.0 * SQRT_PI * l) * np.hypot(b_re, b_im)
            if l == floor:
                assert np.isfinite(_clamp(x_abs - gm))
            else:
                with pytest.raises(RuntimeWarning, match="overflow"):
                    _clamp(x_abs - gm)
        with pytest.raises(ValueError, match=re.escape(closedform._SEPARATION_BELOW)):
            DetectorPairConfig(0.0, 0.0, below, coupling)
        assert closedform._SEPARATION_BELOW.startswith(
            f"l_over_sigma must be >= {floor!r} = 2 sqrt(pi)/sqrt(largest double); ")

    # the raw closed forms check the separation alone, against the same floor
    @pytest.mark.parametrize("coupling", [0.1, closedform._MAX_COUPLING])
    @pytest.mark.parametrize("form", [correlation_x_values, correlation_excess,
                                      concurrence_values])
    def test_closed_forms_answer_at_the_separation_floor_and_refuse_below(self, form, coupling):
        floor = closedform._MIN_SEPARATION
        below = float(np.nextafter(floor, 0.0))
        for a, d in ((0.0, 0.0), (0.5, 0.25), (30.0, 35.0)):
            assert np.isfinite(form(a, d, floor, coupling))
            assert np.isfinite(form(a, d, np.array([floor, 1.0]), coupling)).all()
            for l in (below, 1e-312, 5e-324, np.array([1.0, below])):
                with pytest.raises(ValueError, match=re.escape(closedform._SEPARATION_BELOW)):
                    form(a, d, l, coupling)

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
        # the domain's own refusal of a negative gap difference
        with pytest.raises(ValueError) as domain:
            DetectorPairConfig(0.75, -0.25, 2.0)
        with pytest.raises(ValueError) as refused:
            DetectorPairConfig.with_omega_b(0.75, 0.5, 2.0)
        assert str(refused.value) == str(domain.value)


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
        x_oracle = x_single_integral_pv(0.5, 1.0, 2.0, 0.1)
        assert abs(correlation_x(cfg) - x_oracle) <= 1e-8 * abs(x_oracle)


def _first_order_envelope(d, l):
    """The envelope through |Im w(z)| <= min(1, M/|z|) alone, at unit
    coupling."""
    w_bound = np.minimum(1.0, 2.0 * _ZW_BOUND / np.sqrt(l * l + d * d))
    return 1.0 / (8.0 * SQRT_PI * l) * (2.0 * w_bound + 2.0 * np.exp((d * d - l * l) / 4.0))


class TestXEnvelope:
    """``_scaled_x_envelope`` bounds |X|/E through the constants M =
    ``_ZW_BOUND`` and M3 = ``_ZW3_BOUND`` without a Faddeeva evaluation:
    the separation scans skip every point where it lies below sqrt(P~_A
    P~_B) (``TestScaledExcess``)."""

    def test_zw_bound_is_the_rounded_up_supremum_on_the_real_line(self):
        def zw(x):
            return abs(x * mp.exp(-x * x) * mp.erfc(-1j * x))

        with mp.workdps(20):
            sup = zw(mp.findroot(lambda x: mp.diff(zw, x), 1.33))
            assert sup <= _ZW_BOUND <= sup + 1e-4
            # no real point beats the stationary one: |x w(x)| is even in x,
            # 0 at 0, and falls toward 1/sqrt(pi) from above beyond the samples
            assert all(zw(mp.mpf(x)) <= sup for x in np.linspace(0.0, 60.0, 1201))

    def test_zw3_bound_is_the_rounded_up_supremum_on_the_real_line(self):
        def remainder(x):
            return abs(x**3 * mp.exp(-x * x) * mp.erfc(-1j * x) - 1j * x * x / mp.sqrt(mp.pi))

        with mp.workdps(20):
            sup = remainder(mp.findroot(lambda x: mp.diff(remainder, x), 1.65))
            assert sup <= _ZW3_BOUND <= sup + 1e-4
            # even in x, 0 at 0, and tending to 1/(2 sqrt(pi)) = 0.282 at
            # large x, from above, beyond the samples
            assert all(remainder(mp.mpf(x)) <= sup for x in np.linspace(0.0, 60.0, 1201))

    def test_third_order_bound_on_the_closed_first_quadrant(self):
        # |Im w(z)| <= Re(1/z)/sqrt(pi) + M3/|z|^3, from the real axis
        # (angle 0) to the imaginary one, where both sides' first terms vanish
        with mp.workdps(50):
            for r in np.geomspace(0.05, 1e3, 41):
                for angle in np.linspace(0.0, np.pi / 2, 13):
                    z = mp.mpf(r) * mp.expjpi(mp.mpf(angle) / mp.pi)
                    w = mp.exp(-z * z) * mp.erfc(-1j * z)
                    assert abs(w.imag) <= (1 / z).real / mp.sqrt(mp.pi) + _ZW3_BOUND / abs(z) ** 3

    def test_envelope_does_not_increase_in_l(self):
        l = np.arange(0.01, 120.0, 0.001)
        for d in np.arange(0.0, 35.0 + 0.125, 0.25):
            assert np.all(np.diff(_scaled_x_envelope(d, l)) <= 0.0), d

    def test_envelope_is_within_1_percent_of_x_at_large_separations(self):
        # the first-order envelope lies 32-40 % above |X|/E there
        d = np.linspace(0.0, 35.0, 71)[:, None]
        l = np.geomspace(0.01, 440.0, 500)
        far = (l >= 20.0) & (l * l - d * d >= 160.0)
        ratio = _scaled_x_envelope(d, l) / _x_abs(d, l)
        assert far.sum() > 5000 and ratio[far].max() < 1.01
        assert (_first_order_envelope(d, l) / _x_abs(d, l))[far].min() > 1.3

    def test_envelope_raises_no_warning_far_out(self):
        # (1/|z|)^3 underflows to 0 at large |z| rather than overflowing,
        # and is capped at small |z| (tier-1 runs RuntimeWarnings as errors)
        d = np.linspace(0.0, 35.0, 36)[:, None]
        l = np.geomspace(1e-150, 1e150, 601)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            env = _scaled_x_envelope(d, l)
            assert _scaled_x_envelope(0.0, 1e150) == env[0, -1]
        assert np.all(np.isfinite(env)) and np.all(env > 0.0)
        # never above the first-order envelope, up to the roundings of the
        # prefactor's two forms
        assert np.all(env <= _first_order_envelope(d, l) * (1.0 + 1e-15))

    def test_envelope_is_infinite_without_a_warning_at_tiny_separations(self):
        # the bound overflows below l of about 1e-176, and l^2 + d^2
        # underflows to 0 at d = 0 below about 1.6e-162: +inf holds
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _scaled_x_envelope(0.25, 1e-320) == np.inf
            assert _scaled_x_envelope(35.0, 1e-200) == np.inf
            # W is 1 where 1/|z| is +inf
            assert _scaled_x_envelope(0.0, 1e-170) == 2.0 / (4.0 * SQRT_PI) / 1e-170


class TestIdenticalXFloor:
    """``_scaled_x_floor`` bounds |X(a, 0, l)|/E, E = exp(-a^2), from below
    without a Faddeeva evaluation, through
    Dawson's integral F(x) > x/(1 + 2x^2): the crossover walk starts where
    they stop certifying the identical pair ahead."""

    def test_dawson_integral_exceeds_the_rational_bound(self):
        # F = sqrt(pi)/2 exp(-x^2) erfi(x); the gap is 4x^3/3 at small x
        # and 1/(2x^3) at large x, about 1e-12 and 1e-10 relative at the ends
        with mp.workdps(50):
            for x in np.geomspace(1e-6, 1e5, 1101):
                x = mp.mpf(x)
                dawson = mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)
                assert dawson > x / (1 + 2 * x * x), x

    def test_floor_lies_below_x_across_the_domain(self):
        # |X(a, 0, l)|/E depends on l alone
        l = np.geomspace(0.01, 440.0, 2000)
        margin = 1.0 - analysis._ENVELOPE_MARGIN
        scaled = _x_abs(0.0, l)
        assert np.all(_scaled_x_floor(l) * margin <= scaled)
        # the bound is strict, within 1 - 4/l^2 of |X|/E at large l: 2e-5 at 440
        assert (_scaled_x_floor(l) / scaled).max() < 1.0 - 2e-5

    def test_floor_decreases_in_l(self):
        l = np.arange(0.01, 440.0, 0.001)
        assert np.all(np.diff(_scaled_x_floor(l)) <= 0.0)


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
        assert rep.concurrence == 2.0 * max(0.0, rep.x_abs - rep.geometric_mean)
        assert rep.p_a >= rep.p_b
        rng = np.random.default_rng(11)
        for a, d, l in zip(rng.uniform(0, 3, 500), rng.uniform(0, 3, 500),
                           rng.uniform(0.05, 6, 500)):
            rep = concurrence(DetectorPairConfig(a, d, l, 0.1))
            assert rep.concurrence == 2.0 * max(0.0, rep.x_abs - rep.geometric_mean), (a, d, l)

    def test_against_full_oracle_pipeline(self):
        cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)
        p_a = pd_double_integral(cfg.omega_a_sigma, cfg.coupling, FINE)
        p_b = pd_double_integral(cfg.omega_b_sigma, cfg.coupling, FINE)
        x = x_single_integral_pv(cfg.omega_a_sigma, cfg.omega_b_sigma, cfg.l_over_sigma,
                                 cfg.coupling, FINE)
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

    # each form's relative error against the closed form falls as its
    # regime's parameter grows, by at least the factor ``rate`` a step, to
    # at most ``last``; the rows are (a, d, l) at coupling 0.1
    @pytest.mark.parametrize("regime, rows, rate, last", [
        (GapRegime.SMALL_GAPS, [(t, t, 1.0) for t in (0.1, 0.01, 0.001)], 0.15, 3e-3),
        (GapRegime.LARGE_GAPS, [(t, t / 2.0, 1.0) for t in (2.0, 5.0, 10.0)], 0.1, 3e-4),
        (SeparationRegime.SMALL_SEPARATION, [(0.5, 0.25, t) for t in (0.1, 0.01, 0.001)],
         0.02, 3e-7),
        (SeparationRegime.LARGE_SEPARATION, [(0.5, 0.25, t) for t in (10.0, 20.0, 40.0)],
         0.3, 1.5e-3),
        (ConcurrenceRegime.SMALL_SEPARATION, [(0.5, 0.25, t) for t in (0.1, 0.01, 0.001)],
         0.15, 3e-4),
        (ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS,
         [(t, 0.5, t) for t in (2.0, 4.0, 8.0, 16.0)], 0.75, 0.015),
    ], ids=["gm-small-gaps", "gm-large-gaps", "x-small-separation", "x-large-separation",
            "c-small-separation", "c-large-separation-large-gaps"])
    def test_error_falls_deeper_in_the_regime(self, regime, rows, rate, last):
        errors = []
        for row in rows:
            cfg = DetectorPairConfig(*row, 0.1)
            if isinstance(regime, GapRegime):
                approx = asymptotic_gm_probability(cfg, regime)
                exact = geometric_mean_probability(*row[:2], 0.1)
            elif isinstance(regime, SeparationRegime):
                approx, exact = asymptotic_x(cfg, regime), correlation_x(cfg)
            else:
                approx, exact = asymptotic_concurrence(cfg, regime), concurrence(cfg).concurrence
            errors.append(abs(approx - exact) / abs(exact))
        assert all(e < rate * before for before, e in zip(errors, errors[1:])), errors
        assert errors[-1] <= last, errors

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

    # RuntimeWarnings are errors in these tests: the gm form raised
    # "RuntimeWarning: divide by zero" at the first two rows and
    # ZeroDivisionError at (1e-300, 0.5), returned -inf at (1e-160, 0.5) and
    # warned of an overflow at (1e-120, 0); the concurrence form raised
    # ZeroDivisionError at the first three.  Where 2 a b is zero the message
    # says so; elsewhere it names the value that is not finite
    @pytest.mark.parametrize("a, d, regime", [
        *((a, d, GapRegime.LARGE_GAPS) for a, d in (
            (0.0, 0.0), (0.0, 0.5), (5e-324, 0.0), (1e-300, 0.5), (1e-160, 0.5), (1e-120, 0.0))),
        *((a, d, ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS) for a, d in (
            (0.0, 0.0), (0.0, 0.5), (5e-324, 0.0)))])
    def test_large_gap_forms_refuse_where_they_have_no_value(self, a, d, regime):
        cfg = DetectorPairConfig(a, d, 3.0, 0.1)
        form = (asymptotic_gm_probability if isinstance(regime, GapRegime)
                else asymptotic_concurrence)
        if 2.0 * a * (a + d) == 0.0:
            message = ("the large-gap forms divide by omega_a_sigma*omega_b_sigma, and the gm "
                       f"form also by omega_a_sigma^2: at omega_a_sigma={a!r}, "
                       f"omega_b_sigma={a + d!r} 2 omega_a_sigma omega_b_sigma is zero")
        else:
            message = (f"{form.__name__} in the {regime.value} regime is -inf at {cfg}: not a "
                       "finite double")
        with pytest.raises(ValueError, match=re.escape(message)):
            form(cfg, regime)

    # at the separation floor and the largest coupling the 1/l^2 terms times
    # coupling^2 overflow: the large-separation X and the gap-derivative
    # estimate raised "RuntimeWarning: overflow encountered in scalar
    # multiply", and the large-gap concurrence blamed a 2 a b that is 0.75.
    # Each names its value; the other forms answer, and at coupling 0.1 all
    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    @pytest.mark.parametrize("coupling", [0.1, closedform._MAX_COUPLING])
    def test_regime_forms_answer_or_name_their_value_at_the_separation_floor(self, coupling):
        cfg = DetectorPairConfig(0.5, 0.25, closedform._MIN_SEPARATION, coupling)
        failing = {("asymptotic_x", SeparationRegime.LARGE_SEPARATION): "(-inf-6.08190010030",
                   ("asymptotic_concurrence", ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS):
                       "inf",
                   ("concurrence_gap_derivative_estimate", None): "-inf"}
        calls = [(form, regime) for form, regimes in (
            (asymptotic_gm_probability, GapRegime), (asymptotic_x, SeparationRegime),
            (asymptotic_concurrence, ConcurrenceRegime)) for regime in regimes]
        calls.append((concurrence_gap_derivative_estimate, None))
        for form, regime in calls:
            args = (cfg,) if regime is None else (cfg, regime)
            value = failing.get((form.__name__, regime))
            if coupling == 0.1 or value is None:
                assert np.isfinite(form(*args)), (form.__name__, regime)
                continue
            where = "" if regime is None else f" in the {regime.value} regime"
            with pytest.raises(ValueError, match=re.escape(
                    f"{form.__name__}{where} is {value}")) as exc:
                form(*args)
            assert str(exc.value).endswith(f" at {cfg}: not a finite double")

    @pytest.mark.parametrize("a", [0.5, 3.0, 5.0, 30.0, closedform._MAX_OMEGA_A])
    @pytest.mark.parametrize("d", [0.0, 0.5, 35.0])
    def test_large_gap_forms_keep_their_bits(self, a, d):
        # the forms as they were written on Python floats
        cfg = DetectorPairConfig(a, d, 3.0, 0.1)
        b, lam2 = a + d, 0.1**2
        gauss = np.exp(-(a * a + b * b) / 2.0)
        gm = lam2 / (8.0 * np.pi) * gauss / (a * b) * (1.0 - 3.0 / (4.0 * a * a)
                                                          - 3.0 / (4.0 * b * b))
        c = max(0.0, lam2 / (2.0 * np.pi) * gauss * (2.0 / 9.0 - 1.0 / (2.0 * a * b)))
        assert _bits(asymptotic_gm_probability(cfg, GapRegime.LARGE_GAPS)) == _bits(gm)
        assert _bits(asymptotic_concurrence(
            cfg, ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS)) == _bits(c)

    @pytest.mark.parametrize("a, d", [(5e-324, 0.5), (1e-300, 0.5), (1e-160, 0.0),
                                      (1e-120, 0.0)])
    def test_large_gap_concurrence_keeps_its_clamped_zero(self, a, d):
        # 1/(2 a b) is finite or overflows to inf here, and the clamp gave 0
        cfg = DetectorPairConfig(a, d, 3.0, 0.1)
        assert asymptotic_concurrence(cfg, ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS) == 0.0


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


def _outputs(values):
    """A helper's outputs, one value or a tuple of them, as a tuple."""
    return values if isinstance(values, tuple) else (values,)


def _exp_outcome(exp, x):
    """exp(x) as its type, dtype, shape and bits, or the class and message
    of the floating-point warning or error it raised."""
    try:
        y = exp(x)
    except (RuntimeWarning, FloatingPointError) as exc:
        return type(exc).__name__, str(exc)
    return type(y), y.dtype, y.shape, _bits(y)


class TestExp:
    """_exp is np.exp, bit for bit and warning for warning, on every input:
    arrays large enough for its guard, across exp's range and around the
    edges of its fast loop, its subnormal range and its zero."""

    # exp is subnormal from -708.3964 down and rounds to 0 below -745.1332
    EDGES = (closedform._EXP_FAST, -707.7, -708.3964185322641, -745.1332191019411,
             closedform._EXP_ZERO)

    def _arguments(self):
        rng = np.random.default_rng(32)
        dense = [np.linspace(edge - 1e-3, edge + 1e-3, 2001) for edge in self.EDGES]
        ulps = [edge + np.arange(-64, 65) * np.spacing(edge) for edge in self.EDGES]
        return np.concatenate([rng.uniform(-760.0, 710.0, 100_000),
                               np.linspace(-760.0, 710.0, 1471),
                               np.linspace(-745.2, -708.3, 4001), *dense, *ulps])

    def test_same_bits_across_the_range(self):
        x = self._arguments()
        assert x.size >= closedform._EXP_GUARDED and x.min() < closedform._EXP_FAST
        # exp overflows past 709.78: the same warning, then the same bits
        assert _exp_outcome(closedform._exp, x)[0] == "RuntimeWarning"
        assert _exp_outcome(closedform._exp, x) == _exp_outcome(np.exp, x)
        with np.errstate(over="ignore"):
            y = closedform._exp(x)
            assert _exp_outcome(closedform._exp, x) == _exp_outcome(np.exp, x)
            # shuffled, so that every lane of the vector loop meets every kind
            x = np.random.default_rng(1).permutation(x)
            assert _exp_outcome(closedform._exp, x) == _exp_outcome(np.exp, x)
        assert (y == 0.0).any() and ((y > 0.0) & (y < np.finfo(float).tiny)).any()
        assert np.isinf(y).any()

    @pytest.mark.parametrize("special", [0.0, -0.0, np.inf, -np.inf, np.nan])
    def test_signed_zeros_infinities_and_nan(self, special):
        x = np.linspace(-800.0, 0.0, 4096)
        x[::7] = special
        assert _exp_outcome(closedform._exp, x) == _exp_outcome(np.exp, x)
        for value in (float(special), np.float64(special), np.array(special)):
            assert _exp_outcome(closedform._exp, value) == _exp_outcome(np.exp, value)

    @pytest.mark.parametrize("shape", ["numpy scalar", "0-d", "empty", "empty 2-D", "broadcast 2-D",
                                       "transposed", "strided"])
    def test_shapes(self, shape):
        rng = np.random.default_rng(3)
        base = rng.uniform(-760.0, 5.0, 6000)
        x = {"numpy scalar": np.float64(-720.0), "0-d": np.array(-720.0),
             "empty": np.empty(0), "empty 2-D": np.empty((3, 0)),
             "broadcast 2-D": np.broadcast_to(base[:3000], (2, 3000)),
             "transposed": base.reshape(2, 3000).T, "strided": base[::2]}[shape]
        assert _exp_outcome(closedform._exp, x) == _exp_outcome(np.exp, x)

    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_underflow_is_flagged_where_numpy_is_told_to(self, mode):
        x = np.linspace(-800.0, 0.0, 4096)
        with np.errstate(under=mode):
            got, want = _exp_outcome(closedform._exp, x), _exp_outcome(np.exp, x)
        assert got == want and got[0] in ("RuntimeWarning", "FloatingPointError")


class TestScalarArrayBitwise:
    """A point's closed-form values do not depend on the shape of the call:
    scalar calls, one array call over scattered points, and one-axis
    broadcast calls of the kind sweeps make give the same bits."""

    # where each Gaussian factor underflows: P_A's exp(-a^2) from a = 27.3,
    # X's prefactor exp(-(2a + d)^2/4) from 2a + d = 54.6 and its bracket's
    # exp(-l^2/4) from l = 54.6; (lows, highs) of (a, d, l), the factor's
    # variable and its edge, with about half of the rows past the edge
    UNDERFLOWING = {
        "a": ((20.0, 0.0, 0.05), (40.0, 35.0, 20.0), lambda a, d, l: a, 27.3),
        "2a + d": ((15.0, 0.0, 0.05), (25.0, 35.0, 20.0), lambda a, d, l: 2.0 * a + d, 54.6),
        "l": ((0.0, 0.0, 0.05), (10.0, 35.0, 110.0), lambda a, d, l: l, 54.6),
    }

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    @pytest.mark.parametrize("where", list(UNDERFLOWING))
    def test_underflowing_gaussians_keep_their_bits(self, where, lam):
        # arrays past _exp's guard size, against one scalar call per point
        lows, highs, variable, edge = self.UNDERFLOWING[where]
        a, d, l = np.random.default_rng(32).uniform(lows, highs, (2100, 3)).T
        assert 0.3 < (variable(a, d, l) > edge).mean() < 0.7
        assert a.size >= closedform._EXP_GUARDED
        pts = np.stack([a, d, l], axis=1).tolist()
        assert _bits(transition_probability(a, lam)) == _bits(
            [transition_probability(v, lam) for v in a.tolist()])
        assert _bits(correlation_x_values(a, d, l, lam)) == _bits(
            [correlation_x_values(*p, lam) for p in pts])
        assert _bits(correlation_excess(a, d, l, lam)) == _bits(
            [correlation_excess(*p, lam) for p in pts])
        assert _bits(concurrence_values(a, d, l, lam)) == _bits(
            [concurrence_values(*p, lam) for p in pts])

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_every_kind_of_gap_keeps_its_bits(self, lam):
        # transition_probability adds the inverted-gap term only where a gap
        # is negative, and _scaled_gm takes the series only at gaps of 50 or
        # more: arrays that mix negative, zero, smaller and larger gaps, and
        # gaps past 4e307, where the bracket may round below zero (and the
        # gap's square overflows), against one scalar call per point
        rng = np.random.default_rng(33)
        gaps = np.concatenate([rng.uniform(-30.0, 0.0, 700), [0.0, -0.0] * 50,
                               rng.uniform(0.0, 50.0, 700), [50.0, np.nextafter(50.0, 0.0)] * 50,
                               rng.uniform(50.0, 1e4, 700), rng.uniform(4e307, 1e308, 200)])
        gaps = rng.permutation(gaps)
        assert gaps.size >= closedform._EXP_GUARDED
        assert (_probability_bracket(gaps) < 0.0).any()
        d = rng.uniform(0.0, 35.0, gaps.size)
        with np.errstate(over="ignore"):
            p = transition_probability(gaps, lam)
            assert _bits(p) == _bits([transition_probability(v, lam) for v in gaps.tolist()])
            gm = _scaled_gm(gaps, d, lam)
            assert _bits(gm) == _bits([_scaled_gm(x, y, lam) for x, y in zip(gaps, d)])
        assert not np.signbit(p).any()
        assert np.isnan(gm[gaps < 0.0]).all() and not np.isnan(gm[gaps >= 0.0]).any()

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
        # gap scans: the gap difference runs along the rows
        gaps = np.sort(rng.uniform(0.0, 35.0, (rows, points)), axis=-1)
        p_b = transition_probability(a[:, None] + gaps, lam)
        x = correlation_x_values(a[:, None], gaps, l[:, None], lam)
        conc = _clamp(_ingredients(*_halves(a[:, None], gaps, l[:, None], lam))[3])
        for i in range(rows):
            assert _bits(p_b[i]) == _bits(transition_probability(a[i] + gaps[i], lam))
            assert _bits(x[i]) == _bits(correlation_x_values(a[i], gaps[i], l[i], lam))
            assert _bits(conc[i]) == _bits(concurrence_values(a[i], gaps[i], l[i], lam))
        # separation scans: the separation runs along the rows
        seps = np.sort(rng.uniform(0.01, 120.0, (rows, points)), axis=-1)
        x = correlation_x_values(a[:, None], d[:, None], seps, lam)
        conc = _clamp(_ingredients(*_halves(a[:, None], d[:, None], seps, lam))[3])
        for i in range(rows):
            assert _bits(x[i]) == _bits(correlation_x_values(a[i], d[i], seps[i], lam))
            assert _bits(conc[i]) == _bits(concurrence_values(a[i], d[i], seps[i], lam))
        assert (conc > 0.0).any() and (conc == 0.0).any()

    # the helpers a one-problem search calls, as functions of a point (a, d,
    # l), the brackets of its gaps a and b = a + d, and the coupling
    HELPERS = {
        "_probability_bracket": lambda a, d, l, ba, bb, lam: _probability_bracket(a + d),
        "_x_bracket": lambda a, d, l, ba, bb, lam: _x_bracket(d, l),
        "_x_abs": lambda a, d, l, ba, bb, lam: _x_abs(d, l),
        "_x_abs_slope": lambda a, d, l, ba, bb, lam: _x_abs_slope(d, l),
    }
    COUPLED_HELPERS = {
        "_probability": lambda a, d, l, ba, bb, lam: _probability(a + d, bb, lam),
        "_scaled_probability": lambda a, d, l, ba, bb, lam: _scaled_probability(a + d, bb, lam),
        "_scaled_gm": lambda a, d, l, ba, bb, lam: _scaled_gm(a, d, lam, (ba, bb)),
        "_x": lambda a, d, l, ba, bb, lam: _x(_x_gauss(a, d), _separation_half(d, l, lam)),
        "_ingredients": lambda a, d, l, ba, bb, lam: _ingredients(*_halves(a, d, l, lam)),
        # |X|/E from the separation half, as the gap scans evaluate it
        "_ingredients, |X|/E in its half": lambda a, d, l, ba, bb, lam: _ingredients(
            _gap_half(a, d, lam), _separation_half(d, l, lam, scaled=True)),
    }

    @pytest.mark.parametrize("lam", [None, 0.1, 1.0])
    def test_helpers_give_the_same_bits_on_numpy_scalars_and_0d_arrays(self, lam):
        # a one-problem search runs the helpers on numpy scalars, which
        # numpy computes without its array machinery; a point's bits must
        # be those of a 0-d array and of its element of a 1-D call.  10 000
        # points stratified over the domain, every tenth at d = 0.  On about
        # four fifths of them P_A P_B is not normal and the excess scaled.
        # The helpers that take no coupling run once (lam None)
        n = 10_000
        rng = np.random.default_rng(27)

        def stratified(lo, hi):
            return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

        a, d, l = stratified(0.0, 40.0), stratified(0.0, 35.0), stratified(0.05, 120.0)
        d[::10] = 0.0
        ba, bb = _probability_bracket(a), _probability_bracket(a + d)
        scaled = np.sqrt(_probability(a, ba, 1.0) * _probability(a + d, bb, 1.0)) < _SCALED_BELOW
        assert 0.1 < scaled.mean() < 0.9
        columns = (a, d, l, ba, bb)
        forms = {"numpy scalars": list(zip(*(map(np.float64, c) for c in columns))),
                 "0-d arrays": list(zip(*(map(np.array, c) for c in columns)))}
        for name, helper in (self.HELPERS if lam is None else self.COUPLED_HELPERS).items():
            whole = _outputs(helper(*columns, lam))
            for form, points in forms.items():
                one = [_outputs(helper(*p, lam)) for p in points]
                for k, part in enumerate(whole):
                    got = np.array([o[k] for o in one])
                    assert got.dtype == part.dtype and _bits(got) == _bits(part), (name, form, k)
            # a 0-d value never turns back into an array (_ingredients
            # returns P_A, P_B and X as Python numbers, as the report does)
            assert not any(isinstance(v, np.ndarray) for v in one[0]), name

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


class TestPublicTypes:
    """The public closed forms return the same types for a Python float, a
    numpy scalar and a 0-d array."""

    @pytest.mark.parametrize("form", [float, np.float64, np.array])
    def test_scalar_inputs(self, form):
        a, d, l = form(0.5), form(0.25), form(2.0)
        assert type(transition_probability(a, 0.1)) is float
        assert type(correlation_x_values(a, d, l, 0.1)) is complex
        assert type(correlation_excess(a, d, l, 0.1)) is np.float64
        assert type(concurrence_values(a, d, l, 0.1)) is np.float64
        # the scaled excess too
        assert type(correlation_excess(form(30.0), d, form(50.0), 0.1)) is np.float64
        report = concurrence(DetectorPairConfig(a, d, l, 0.1))
        assert [type(v) for v in (report.p_a, report.p_b, report.x, report.concurrence)] == [
            float, float, complex, float]

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_size_zero_inputs_give_size_zero_results(self, shape):
        e = np.empty(shape)
        for form, args, dtype in ((concurrence_values, (e, e, e), float),
                                  (correlation_excess, (e, e, e), float),
                                  (correlation_x_values, (e, e, e), complex),
                                  (transition_probability, (e,), float)):
            value = form(*args, 0.1)
            assert isinstance(value, np.ndarray) and value.shape == shape, form.__name__
            assert value.dtype == dtype, form.__name__

    def test_report_fields(self):
        assert tuple(f.name for f in dataclasses.fields(HarvestReport)) == (
            "p_a", "p_b", "x", "concurrence")


class TestIngredientHalves:
    """The halves _ingredients assembles give every field the bits of the
    halves built from the raw parameters, wherever P_A P_B is a normal
    double, is subnormal or underflows to zero: a gap half from a row's P_A
    or from the gaps' probability brackets, a separation half from X's
    bracket, and halves evaluated once per key and gathered to the rows, as
    the gap scans do: the gap half per (smaller gap, gap bound), the
    separation half, with |X|/E, per (separation, gap bound)."""

    @pytest.mark.parametrize("halves", ["p_a", "brackets", "x_bracket", "gathered"])
    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_halves_keep_every_bit(self, lam, halves):
        rng = np.random.default_rng(25)
        rows = 48
        # one grid of gap differences per gap bound, shared by the keys of
        # that bound; each row takes a separation key and a smaller gap
        ls, bounds = np.array([0.3, 2.5, 9.0, 60.0]), np.array([4.0, 12.0, 35.0, 35.0])
        gaps = np.sort(rng.uniform(0.0, 40.0, 6))
        sep_of, gap_of = rng.integers(0, ls.size, rows), rng.integers(0, gaps.size, rows)
        grid = np.linspace(0.0, bounds, 256, axis=-1)
        a, d, l = gaps[gap_of, None], grid[sep_of], ls[sep_of, None]
        if halves == "p_a":
            got = (_gap_half(a, d, lam, p_a=transition_probability(a, lam)),
                   _separation_half(d, l, lam))
        elif halves == "brackets":
            got = (_gap_half(a, d, lam, brackets=(_probability_bracket(a),
                                                  _probability_bracket(a + d))),
                   _separation_half(d, l, lam))
        elif halves == "x_bracket":
            x_bracket = tuple(b[sep_of] for b in _x_bracket(grid, ls[:, None])[:2])
            got = _gap_half(a, d, lam), _separation_half(d, l, lam, x_bracket=x_bracket)
        else:
            # the gap keys: every smaller gap at every bound
            gap = _gap_half(np.repeat(gaps, ls.size)[:, None], np.tile(grid, (gaps.size, 1)), lam)
            separation = _separation_half(grid, ls[:, None], lam, scaled=True)
            got = (analysis._take(gap, gap_of * ls.size + sep_of),
                   analysis._take(separation, sep_of))
        want = _ingredients(*_halves(a, d, l, lam))
        for field, value, expected in zip(("p_a", "p_b", "x", "excess"), _ingredients(*got), want):
            assert np.shape(value) == np.shape(expected) and _bits(value) == _bits(expected), field
        product = want[0] * want[1]
        tiny = np.finfo(float).tiny
        assert (product >= tiny).any() and (product == 0.0).any()
        assert ((product > 0.0) & (product < tiny)).any()


@functools.cache
def _reference(lam):
    """The 50-digit textbook P and X at coupling ``lam``, one instance per
    coupling."""
    return reference.Reference(lam)


def _textbook_x_abs(a, d, l, lam):
    """|X| from the textbook expression in Erfi, at 50 digits."""
    return _reference(lam).x_abs(a, d, l)


class TestXAbsSlope:
    """``_x_abs_slope`` gives |X|/E at unit coupling, E = exp(-(a^2 +
    b^2)/2), and its slope in the separation from one Faddeeva evaluation,
    for the root refinement; neither depends on a."""

    @pytest.mark.parametrize("a", [0.2, 4.0])
    @pytest.mark.parametrize("d", [0.0, 1.5])
    @pytest.mark.parametrize("l", [0.05, 1.0, 30.0])
    def test_slope_against_a_50_digit_derivative(self, a, d, l):
        x_abs, slope = _x_abs_slope(d, l)
        with mp.workdps(50):
            def want(s):
                return _textbook_x_abs(a, d, s, 1.0) / _textbook_scale(a, d)

            assert abs(x_abs - want(l)) <= 1e-12 * want(l)
            # the reference works at a fixed 50 digits, where mp.diff's
            # default step rounds away
            derivative = mp.diff(want, mp.mpf(l), h=mp.mpf("1e-20"))
            assert abs(slope - derivative) <= 1e-12 * abs(derivative)
        assert x_abs == _x_abs(d, l)

    def test_same_bits_for_every_shape_of_call(self):
        # the calls the searches make: one problem, a row of problems, and
        # both pairs of a crossover stacked along a leading axis of two
        rng = np.random.default_rng(14)
        d, l = rng.uniform(0.0, 35.0, 200), rng.uniform(0.05, 120.0, 200)
        d[:3], l[:3] = [0.0, 0.0, 0.25], [0.05, 30.0, 1.7]
        x_abs, slope = _x_abs_slope(d, l)
        assert _bits(x_abs) == _bits(_x_abs(d, l))
        one = [_x_abs_slope(*p) for p in zip(d.tolist(), l.tolist())]
        assert _bits([v for v, _ in one]) == _bits(x_abs)
        assert _bits([s for _, s in one]) == _bits(slope)
        stacked_abs, stacked_slope = _x_abs_slope(np.stack([d, np.zeros(200)]), l)
        identical = _x_abs_slope(0.0, l)
        assert _bits(stacked_abs) == _bits(np.stack([x_abs, identical[0]]))
        assert _bits(stacked_slope) == _bits(np.stack([slope, identical[1]]))
        assert np.isfinite(slope).all() and (slope[:3] != 0.0).all()


def _textbook_scale(a, d):
    """E = exp(-(a^2 + b^2)/2) at 50 digits, in the reference's context."""
    mp = _reference(1.0).mp
    a, d = mp.mpf(a), mp.mpf(d)
    return mp.exp(-(a * a + (a + d) ** 2) / 2)


def _textbook_p(x, lam):
    """P from the textbook expression in erfc, at 50 digits."""
    return _reference(lam).p(x)


class TestScaledExcess:
    """Where P_A P_B is not a normal double the excess is E S, for the
    scaled excess S = |X|/E - sqrt(P~_A P~_B) and E = exp(-(a^2 + b^2)/2);
    each scaled piece against the textbook expressions at 50 digits."""

    @pytest.mark.parametrize("x", [0.0, 0.5, 5.0, 20.0, 49.9, 50.0, 100.0, 1e3, 1e4])
    def test_scaled_probability(self, x):
        with mp.workdps(50):
            want = _textbook_p(x, 0.1) * mp.exp(mp.mpf(x) ** 2)
            got = _scaled_probability(x, _probability_bracket(x), 0.1)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("a, d", [(20.0, 0.0), (15.36, 6.33), (4.5, 34.6), (40.0, 35.0)])
    def test_scaled_gm(self, a, d):
        gm = _scaled_gm(a, d, 0.1)
        with mp.workdps(50):
            want = mp.sqrt(_textbook_p(a, 0.1) * _textbook_p(a + d, 0.1)) / _textbook_scale(a, d)
            assert abs(gm - want) <= 1e-12 * want

    @pytest.mark.parametrize("a, d, l", [(20.0, 0.0, 0.05), (20.0, 0.0, 40.0), (30.0, 5.0, 64.7),
                                         (15.4, 20.6, 42.5), (4.5, 34.6, 9.4), (0.5, 35.0, 120.0),
                                         (40.0, 35.0, 3.0)])
    def test_scaled_x_abs_and_slope(self, a, d, l):
        x_abs, slope = _x_abs_slope(d, l)
        assert x_abs == _x_abs(d, l)
        with mp.workdps(50):
            def want(s):
                return _textbook_x_abs(a, d, s, 1.0) / _textbook_scale(a, d)

            assert abs(x_abs - want(l)) <= 1e-12 * want(l)
            # the reference works at a fixed 50 digits, where mp.diff's
            # default step rounds away
            derivative = mp.diff(want, mp.mpf(l), h=mp.mpf("1e-20"))
            assert abs(slope - derivative) <= 1e-11 * abs(derivative)

    def test_scaled_envelope_bounds_scaled_x_across_the_domain(self):
        # |X|/E depends on d and l alone
        d = np.linspace(0.0, 35.0, 71)[:, None]
        l = np.geomspace(0.01, 440.0, 500)
        x = _x_abs(d, l)
        env = _scaled_x_envelope(d, l)
        assert np.isfinite(x).all() and (x > 0.0).all()
        assert np.all(x <= env * (1.0 + 1e-12))
        assert np.all(np.diff(env, axis=-1) <= 0.0)

    # np.sqrt(P_A P_B) underflowed to 0.0 at these rows, where the report's
    # geometric_mean gave 1.898e-180, 5.878e-172 and 2.809e-191
    @pytest.mark.parametrize("a, d", [(20.0, 0.0), (19.0, 1.0), (15.0, 10.0)])
    def test_geometric_mean_probability_does_not_underflow(self, a, d):
        gm = geometric_mean_probability(a, d, 0.1)
        assert gm == concurrence(DetectorPairConfig(a, d, 1.0, 0.1)).geometric_mean
        with mp.workdps(50):
            want = mp.sqrt(_textbook_p(a, 0.1) * _textbook_p(a + d, 0.1))
            assert abs(gm - want) <= 1e-12 * want

    def test_the_switch_is_where_the_product_is_not_normal(self):
        # sqrt is correctly rounded and sqrt(2^-1022) = 2^-511, so gm below
        # 2^-511 is exactly a product below the normal range; at (15.36,
        # 6.33) the product is subnormal while its square root is normal
        tiny = np.finfo(float).tiny
        edge = np.arange(-1000, 1000) * 2.0**-1074
        products = np.concatenate([[0.0, 1.0], tiny + edge, np.geomspace(5e-324, 1e-290, 999)])
        assert np.array_equal(np.sqrt(products) < _SCALED_BELOW, products < tiny)
        a, d = 15.359109054331253, 6.3253277812904525
        product = transition_probability(a, 0.1) * transition_probability(a + d, 0.1)
        assert 0.0 < product < tiny < geometric_mean_probability(a, d, 0.1) < _SCALED_BELOW

    @pytest.mark.parametrize("a, d, l", [
        (20.0, 0.0, 30.0), (20.0, 0.0, 45.0), (20.0, 0.0, 100.0),
        (15.359109054331253, 6.3253277812904525, 36.0), (15.4, 20.6, 30.0),
        (10.05, 18.76, 42.43), (21.03, 4.55, 81.51),
        (6.246929858618986, 32.08485831966541, 13.243304843261368),
        (13.418592999551365, 23.972817816625508, 8.292654803780124)])
    def test_public_values_against_50_digits(self, a, d, l):
        # the unscaled excess gave 6.1e-181 for the concurrence at (20, 0,
        # 100), past the true lmax of 40.10, and harvesting at l = 45.  In
        # the last two rows E underflows to zero while |X| ~ 1e-239 and
        # 1e-291 is normal, so E S is not formed as a product with E
        got = correlation_excess(a, d, l, 0.1)
        report = concurrence(DetectorPairConfig(a, d, l, 0.1))
        with mp.workdps(50):
            x = _textbook_x_abs(a, d, l, 0.1)
            gm = mp.sqrt(_textbook_p(a, 0.1) * _textbook_p(a + d, 0.1))
            assert abs(got - (x - gm)) <= 1e-12 * (x + gm) + 2.0**-1074
            assert report.concurrence == concurrence_values(a, d, l, 0.1) == 2.0 * max(got, 0.0)
            # harvesting is claimed where it occurs, unless below the
            # double range (at (15.4, 20.6, 30) the excess is 5.8e-340)
            assert report.concurrence == 0.0 or x > gm
            assert report.concurrence > 0.0 or x - gm < 1e-300

    def test_a_concurrence_below_the_double_range_is_zero_not_negative_zero(self):
        # E underflows at (30, 0), and E S is -0 past the root
        assert concurrence_values(30.0, 0.0, 100.0, 0.1) == 0.0
        assert np.signbit(concurrence_values(np.array([30.0, 40.0]), 0.0, 100.0, 0.1)).sum() == 0


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
