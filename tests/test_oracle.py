"""Integral oracles: agreement with closed forms, regulator convergence,
quadrature stability, and the assembled joint state."""

import numpy as np
import pytest

from udwharvest import (
    DEFAULT_SETTINGS,
    DetectorPairConfig,
    NonConvergence,
    OracleSettings,
    assemble_rho,
    c_double_integral,
    c_quadrature,
    concurrence,
    concurrence_values,
    correlation_excess,
    correlation_x,
    correlation_x_values,
    pd_double_integral,
    pv_gaussian_pole_integral,
    transition_probability,
    x_double_integral,
    x_single_integral_pv,
)
from udwharvest import cli, oracle
from udwharvest.cli import VERIFICATION_GRID, run_verification
from udwharvest.oracle import extrapolate_to_zero

FOUR_PI = 4.0 * np.pi
# a non-asymptotic regulator schedule whose extrapolation cannot converge
COARSE_SCHEDULE = OracleSettings(epsilon_schedule=(0.9, 0.85))

GRID = [
    (a, a * r, l)
    for a in (0.2, 0.5, 1.2)
    for r in (0.0, 0.5, 1.2)
    for l in (0.5, 2.0, 6.0)
]


# c_quadrature(cfg) and c_double_integral(cfg) at verify's scenarios, when
# both routes took a DetectorPairConfig of coupling 0.1
C_CONFIG_CALLS = [
    ((0.00014123484490590797-0j), (0.00014123475229168732+0j)),
    ((0.0005266497301176134-1.2461359869345613e-20j), (0.0005266484242886489+0j)),
    ((0.0003245570575758228-0j), (0.00032455680450326727+0j)),
    ((4.509742401595889e-05-0j), (4.509742779241927e-05+0j)),
    ((0.00047505343611722715-6.215122689495327e-21j), (0.00047505232558268457+0j)),
    ((0.00029884182904948905-6.215122689495327e-21j), (0.0002988415986659327+0j)),
    ((4.381423863404818e-05-0j), (4.381424261269898e-05+0j)),
    ((0.0004055516665478203-2.45664042034192e-20j), (0.00040555079308602336+0j)),
    ((0.00026210955394742255+6.1416010508548e-21j), (0.0002621093561108168+0j)),
    ((4.1325428256383984e-05-0j), (4.132543232126713e-05+0j)),
    ((0.0002741031019080706-2.4922719738691226e-20j), (0.00027410262234189457+0j)),
    ((0.00018831855848878824-0j), (0.00018831842668259126+0j)),
    ((3.5331408786562195e-05-0j), (3.5331412580791815e-05+0j)),
    ((0.00019824308532915414-0j), (0.00019824278428822977+0j)),
    ((2.9587504312209116e-05-1.5335205489516173e-21j), (2.958750747701747e-05+0j)),
    ((0.00011507608261715394-1.1388825395482353e-20j), (0.00011507593871156729+0j)),
    ((8.565284907586128e-05+2.2777650790964706e-20j), (8.565279839840938e-05+0j)),
    ((2.0659845456170554e-05-0j), (2.0659847529186253e-05+0j)),
    ((3.6175094083639715e-05-4.984543947738245e-20j), (3.617506449148098e-05+0j)),
    ((2.9056283187354023e-05-0j), (2.9056269982032943e-05+0j)),
    ((9.18250997152912e-06-3.1153399673364032e-21j), (9.182510641328614e-06+0j)),
    ((1.097706317336573e-05+1.1388825395482353e-20j), (1.0977056518885284e-05+0j)),
    ((9.187523503948545e-06-0j), (9.187520117267977e-06+0j)),
    ((3.416613130337062e-06-0j), (3.4166133037284455e-06+0j)),
    ((1.1863418613670114e-06+7.420397641157647e-20j), (1.1863413755447701e-06+0j)),
    ((1.0356928950636482e-06-0j), (1.0356926108728458e-06+0j)),
    ((4.6235211616786277e-07-0j), (4.623521276206984e-07+0j)),
]


# pv_gaussian_pole_integral at kappa 0, 1.5 and 10 when its panels spanned
# [-l, l]
PV_WIDE_PANELS = {
    12.5: [-0.022989745695409437, -0.012900406935527289,
           -1.9123076151826649e-13 - 4.336808689942018e-19j],
    13.0: [-0.021233402403611264, -0.011929409325413268, -1.8231130803233027e-13],
    20.0: [-0.008907262497047635, -0.005046087339247228,
           -9.853604456979861e-14 - 1.0842021724855044e-19j],
    1e3: [-3.5449147916689753e-06, -2.0198270187713413e-06 - 4.235164736271502e-22j,
          -4.9225899597744996e-17 + 2.6469779601696886e-23j],
    1e4: [-3.544907772709191e-08, -2.0198275186987236e-08, -4.923063198977259e-19],
}


def _pair(cfg):
    """The correlation oracles' arguments for a scenario: both gaps, the
    separation and the coupling."""
    return cfg.omega_a_sigma, cfg.omega_b_sigma, cfg.l_over_sigma, cfg.coupling


def test_settings_validation():
    with pytest.raises(ValueError):
        OracleSettings(epsilon_schedule=(0.01, 0.02))
    with pytest.raises(ValueError):
        OracleSettings(epsilon_schedule=(0.05,))
    with pytest.raises(ValueError):
        OracleSettings(quadrature_nodes=2)
    # non-finite regulators gave NaN values that passed the limit's checks
    with pytest.raises(ValueError, match="finite"):
        OracleSettings(epsilon_schedule=(0.05, np.nan))
    with pytest.raises(ValueError, match="finite"):
        OracleSettings(epsilon_schedule=(np.inf, 0.05))
    # panels as narrow as these regulators gave an X 26 % off, unrefused
    with pytest.raises(ValueError, match="distinct doubles"):
        OracleSettings(epsilon_schedule=(2e-16, 1e-16))
    assert OracleSettings(epsilon_schedule=(2e-8, 1e-8)).epsilon_schedule[-1] == 1e-8
    # the self-check at twice a larger order asks for gigabytes
    with pytest.raises(ValueError, match="quadrature_nodes must be <= 1024"):
        OracleSettings(quadrature_nodes=1025)
    assert OracleSettings(quadrature_nodes=1024).quadrature_nodes == 1024


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("route", [
    lambda s: pd_double_integral(0.5, 0.1, s),
    lambda s: x_double_integral(*_pair(DetectorPairConfig(0.5, 0.25, 0.5)), s),
    lambda s: c_double_integral(*_pair(DetectorPairConfig(0.5, 0.25, 0.5)), s),
], ids=["pd", "x", "c"])
def test_underflowed_regulator_limit_is_not_certified(route):
    # at these regulators every sample underflows to zero, which the
    # limit's relative checks passed as a certified value
    with pytest.raises(NonConvergence, match="exactly zero"):
        route(OracleSettings(epsilon_schedule=(1e200, 1e199)))


def test_regulator_limit_refuses_a_value_that_is_not_finite():
    # a NaN limit fails every comparison, so the relative checks let it by
    for sample in (np.nan, np.inf):
        with pytest.raises(NonConvergence, match="not finite"):
            oracle._regulator_limit(DEFAULT_SETTINGS, [sample, 1.0, 1.0], np.zeros(3), 1e-3,
                                    oracle._neville_weights(DEFAULT_SETTINGS.epsilon_schedule))


def test_neville_weights_are_the_unit_samples_extrapolants():
    # the weights the quadrature error bound carries through the tableau,
    # built once per batch: the degree-2 polynomial through three samples
    # at 0.05, 0.025, 0.0125 takes them with weights 1/3, -2 and 8/3
    weights = oracle._neville_weights(DEFAULT_SETTINGS.epsilon_schedule)
    assert weights == pytest.approx([1.0 / 3.0, 2.0, 8.0 / 3.0], rel=1e-14)


def test_extrapolate_to_zero_polynomial_exact():
    # degree-2 polynomial data must extrapolate exactly
    eps = (0.4, 0.2, 0.1)
    f = lambda e: 3.0 - 2.0 * e + 5.0 * e * e
    diag = extrapolate_to_zero(eps, [f(e) for e in eps])
    assert diag[-1] == pytest.approx(3.0, rel=1e-13)


@pytest.mark.parametrize("l", [0.0, -0.0, -1.0])
@pytest.mark.parametrize("route", [
    lambda l: x_single_integral_pv(0.5, 0.75, [2.0, l], 0.1),
    lambda l: x_double_integral(0.5, 0.75, [2.0, l], 0.1),
    lambda l: c_quadrature(0.5, 0.75, [2.0, l], 0.1),
    lambda l: c_double_integral(0.5, 0.75, [2.0, l], 0.1),
    lambda l: pv_gaussian_pole_integral(0.5, l),
    lambda l: correlation_x_values(0.5, 0.25, l, 0.1),
    lambda l: correlation_excess(0.5, 0.25, l, 0.1),
    lambda l: concurrence_values(0.5, 0.25, [2.0, l], 0.1),
], ids=["x_pv", "x_double", "c_pv", "c_double", "pole_integral", "x_values", "excess",
        "concurrence_values"])
def test_a_nonpositive_separation_is_refused_with_the_domain_message(route, l):
    # the routes stated the rule apart from the domain, in two other texts
    with pytest.raises(ValueError) as domain:
        DetectorPairConfig(0.5, 0.25, l)
    with pytest.raises(ValueError) as refused:
        route(l)
    assert str(refused.value) == str(domain.value)


class TestTransitionProbabilityOracle:
    def test_zero_gap_anchor(self):
        p = pd_double_integral(0.0, 1.0)
        assert p == pytest.approx(1.0 / FOUR_PI, rel=1e-4)

    @pytest.mark.parametrize("gap", [0.5, 2.0])
    def test_matches_closed_form(self, gap):
        p = pd_double_integral(gap, 0.1)
        assert p == pytest.approx(transition_probability(gap, 0.1), rel=1e-4)

    def test_nonconvergent_schedule_raises(self):
        # a coarse non-asymptotic schedule cannot self-certify
        with pytest.raises(NonConvergence):
            pd_double_integral(2.0, 0.1, COARSE_SCHEDULE)

    @pytest.mark.parametrize("gap", [3.75, 4.0])
    def test_nonconvergent_schedule_raises_however_small_the_value(self, gap):
        # these returned values 2.5 % off while the regulator check was
        # absolute below 1e-3 of the coupling scale
        with pytest.raises(NonConvergence, match="regulator extrapolation"):
            pd_double_integral(gap, 0.1, COARSE_SCHEDULE)

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_imaginary_residue_is_summation_order_round_off(self, lam):
        # the o < 0 half is the conjugate of the o > 0 half, so the value's
        # imaginary part is round-off (1.9e-15 lam^2 at most here); the
        # value is the last extrapolant, and its real part is returned
        gaps = [0.0, 0.5, 1.2, 2.64, 3.5]
        values, extrapolants = pd_double_integral(gaps, lam, return_extrapolants=True)
        assert np.all(np.abs(extrapolants[:, -1].imag) < 1e-13 * lam**2)
        assert np.array_equal(values, extrapolants[:, -1].real)


class TestCorrelationPVOracle:
    @pytest.mark.parametrize(
        "a,d,l",
        [(0.5, 0.0, 1.0), (1.2, 1.44, 4.0), (0.5, 0.5, 2.0)],
    )
    def test_matches_closed_form(self, a, d, l):
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x = x_single_integral_pv(*_pair(cfg))
        x_exact = correlation_x(cfg)
        assert abs(x - x_exact) <= 1e-8 * abs(x_exact)

    def test_lightcone_residue_vanishes_at_quarter_period(self):
        # gap difference times separation = pi kills the residue cosine,
        # leaving the imaginary part to the odd component of the principal value
        d, l = np.pi / 4.0, 4.0
        cfg = DetectorPairConfig(0.5, d, l, 0.1)
        assert np.cos(0.5 * d * l) == pytest.approx(0.0, abs=1e-15)
        pref = cfg.coupling**2 / (4.0 * np.pi**1.5) * np.exp(-((2 * 0.5 + d) ** 2) / 4.0)
        pv = pv_gaussian_pole_integral(d, l)
        x = x_single_integral_pv(*_pair(cfg))
        assert x.imag == pytest.approx(pref * pv.imag, rel=1e-10)
        # and the odd component is genuinely what carries it
        pv_even = pv_gaussian_pole_integral(0.0, l)
        assert abs(pv_even.imag) < 1e-14

    # the panels spanned [-l, l] at unit width: 20 000 at l = 1e4, and at
    # 1e300 numpy refused the array
    @pytest.mark.parametrize("l", [12.5, 13.0, 20.0, 1e3, 1e4])
    def test_panels_stay_in_the_window_past_it(self, l, monkeypatch):
        panelize = oracle._panelize
        panels = []

        def counting_panelize(edges, order):
            panels.append(edges.size - 1)
            return panelize(edges, order)

        monkeypatch.setattr(oracle, "_panelize", counting_panelize)
        pv = pv_gaussian_pole_integral(np.array([0.0, 1.5, 10.0]), l)
        assert panels == [24]
        # the values of the wide panels, within 5e-16 of the integral's scale
        # 2 sqrt(pi)/l^2; the rows at kappa = 10 have cancelled to about 1e-11
        # of it
        scale = 2.0 * np.sqrt(np.pi) / l**2
        assert np.all(np.abs(pv - PV_WIDE_PANELS[l]) <= 5e-16 * scale)

    @pytest.mark.parametrize("l", [np.nan, np.inf, -np.inf])
    def test_pole_integral_refuses_a_separation_that_is_not_finite(self, l):
        # these ran into RuntimeWarnings and returned NaN
        with pytest.raises(ValueError, match="l_over_sigma must be finite"):
            pv_gaussian_pole_integral(0.5, l)


class TestCorrelationDoubleIntegralOracle:
    def test_matches_closed_form(self):
        cfg = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
        x = x_double_integral(*_pair(cfg))
        x_exact = correlation_x(cfg)
        assert abs(x - x_exact) <= 1e-3 * abs(x_exact)

    def test_nonconvergent_schedule_raises(self):
        # this returned a value 12 % off while the regulator check was
        # absolute below 1e-3 of the coupling scale
        cfg = DetectorPairConfig.with_omega_b(3.0, 4.0, 2.0, 0.1)
        with pytest.raises(NonConvergence, match="regulator extrapolation"):
            x_double_integral(*_pair(cfg), COARSE_SCHEDULE)

    def test_swap_symmetry(self):
        # relabeling which static detector carries which gap cannot matter
        x_ab, x_ba = x_double_integral([0.3, 0.7], [0.7, 0.3], 1.5, 0.1, DEFAULT_SETTINGS)
        assert abs(x_ab - x_ba) <= 1e-3 * abs(x_ab)

    def test_quadratic_coupling_scaling(self):
        cfg1 = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
        cfg2 = DetectorPairConfig(0.5, 0.25, 2.0, 0.2)
        x1, x2 = x_double_integral(*_pair(cfg1)), x_double_integral(*_pair(cfg2))
        assert abs(x2 - 4.0 * x1) <= 1e-12 * abs(x2)


class TestExchangeCorrelation:
    def test_stable_under_node_doubling(self):
        cfg = DetectorPairConfig(0.5, 0.0, 2.0, 0.1)
        c64 = c_quadrature(*_pair(cfg), OracleSettings(quadrature_nodes=64))
        c128 = c_quadrature(*_pair(cfg), OracleSettings(quadrature_nodes=128))
        assert abs(c64 - c128) <= 1e-8 * abs(c64)

    def test_quadratic_coupling_scaling(self):
        c1 = c_quadrature(*_pair(DetectorPairConfig(0.5, 0.25, 2.0, 0.1)))
        c2 = c_quadrature(*_pair(DetectorPairConfig(0.5, 0.25, 2.0, 0.2)))
        assert abs(c2 - 4.0 * c1) <= 1e-12 * abs(c2)

    @pytest.mark.parametrize(
        "a,d,l", [(0.5, 0.5, 2.0), (0.2, 0.0, 0.5), (1.2, 0.6, 0.5), (0.5, 0.0, 2.0),
                  (1.2, 0.0, 6.0), (0.2, 0.24, 6.0)],
    )
    def test_dual_path_agreement(self, a, d, l):
        # the double integral's earlier half is the conjugate of its later
        # half; c_quadrature shares none of that route
        cfg = DetectorPairConfig(a, d, l, 0.1)
        c_pv = c_quadrature(*_pair(cfg))
        c_direct = c_double_integral(*_pair(cfg))
        assert abs(c_pv - c_direct) <= 1e-3 * abs(c_pv)

    def test_verify_scenarios_keep_the_values_of_the_config_calls(self):
        # the routes took a DetectorPairConfig and read its gap difference;
        # from both gaps, b = a + d rounded, the principal-value route moves
        # by round-off and the double integral keeps its bits
        for (a, r, l), (c_pv, c_direct) in zip(VERIFICATION_GRID, C_CONFIG_CALLS, strict=True):
            args = _pair(DetectorPairConfig(a, a * r, l, 0.1))
            assert abs(c_quadrature(*args) - c_pv) <= 1e-13 * abs(c_pv)
            assert c_double_integral(*args) == c_direct


class TestAssembledState:
    def test_structure(self):
        cfg = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
        rho = assemble_rho(cfg)
        m = rho.entries
        assert np.trace(m) == pytest.approx(1.0, abs=1e-15)
        assert m[0, 3] == correlation_x(cfg)
        assert m[3, 0] == np.conj(m[0, 3])
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        zero_mask = np.ones((4, 4), dtype=bool)
        for i, j in [(0, 0), (1, 1), (2, 2), (0, 3), (3, 0), (1, 2), (2, 1)]:
            zero_mask[i, j] = False
        assert np.max(np.abs(m[zero_mask])) <= 1e-12

    def test_concurrence_matches_closed_form(self):
        cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)
        rho = assemble_rho(cfg)
        assert rho.concurrence() == pytest.approx(concurrence(cfg).concurrence, rel=1e-6)


class TestRegulatorConvergence:
    """Within one run, each added regulator (a halving) must shrink the
    extrapolant corrections by a factor of at least two."""

    @pytest.mark.parametrize("gap", [0.0, 0.5, 2.0])
    def test_probability_route(self, gap):
        _, diag = pd_double_integral(gap, 0.1, return_extrapolants=True)
        steps = [abs(b - a) for a, b in zip(diag, diag[1:])]
        assert all(s2 <= 0.5 * s1 for s1, s2 in zip(steps, steps[1:]))

    @pytest.mark.parametrize("a,d,l", GRID)
    def test_correlation_route(self, a, d, l):
        cfg = DetectorPairConfig(a, d, l, 0.1)
        _, diag = x_double_integral(*_pair(cfg), return_extrapolants=True)
        steps = [abs(b - a) for a, b in zip(diag, diag[1:])]
        assert all(s2 <= 0.5 * s1 for s1, s2 in zip(steps, steps[1:]))


def test_every_regulator_of_a_longer_schedule_is_used():
    # the extrapolation order is one less than the schedule's length; the
    # order-two polynomial through the first three values is off by ~1e-6
    fine = OracleSettings(epsilon_schedule=(0.04, 0.02, 0.01, 0.005))
    p, diag = pd_double_integral(0.5, 0.1, fine, return_extrapolants=True)
    exact = transition_probability(0.5, 0.1)
    assert len(diag) == 4 and p == diag[-1].real
    assert abs(p - exact) <= 1e-8 * exact


class TestQuadratureRefinementStability:
    """Doubling the panel order moves no reported value beyond its route's
    tolerance."""

    @pytest.mark.parametrize("gap", [0.0, 0.5, 2.0])
    def test_probability_route(self, gap):
        p64 = pd_double_integral(gap, 0.1)
        p128 = pd_double_integral(gap, 0.1, OracleSettings(quadrature_nodes=128))
        assert abs(p64 - p128) <= 1e-4 * p64

    @pytest.mark.parametrize("a,d,l", [(0.5, 0.25, 2.0), (1.2, 1.44, 6.0), (0.2, 0.0, 0.5)])
    def test_correlation_routes(self, a, d, l):
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x64 = x_double_integral(*_pair(cfg))
        x128 = x_double_integral(*_pair(cfg), OracleSettings(quadrature_nodes=128))
        assert abs(x64 - x128) <= 1e-3 * abs(x64)
        # the PV route self-checks by doubling internally; run it for effect
        x_single_integral_pv(*_pair(cfg))


class TestBatchedOracles:
    """A batched row is the 0-d call of the same function at that row: the
    rows of a batch share the cross-Gaussian matrices, never the numbers
    that make a row differ."""

    # per-row couplings, so that rows sharing a matrix differ in scale too
    COUPLINGS = np.resize([0.1, 0.05, 0.2], len(GRID))

    def test_x_rows_match_0d_calls(self):
        a, d, l = np.transpose(GRID)
        values, extrapolants = x_double_integral(
            a, a + d, l, self.COUPLINGS, return_extrapolants=True
        )
        assert values.shape == (len(GRID),) and extrapolants.shape == (len(GRID), 3)
        for (a, d, l), lam, x, diag in zip(GRID, self.COUPLINGS, values, extrapolants):
            x1, diag1 = x_double_integral(a, a + d, l, lam, return_extrapolants=True)
            assert x == x1 and np.array_equal(diag, diag1)

    @pytest.mark.parametrize("route", [c_quadrature, c_double_integral])
    def test_c_rows_match_0d_calls(self, route):
        a, d, l = np.transpose(GRID)
        values = route(a, a + d, l, self.COUPLINGS)
        assert values.shape == (len(GRID),) and values.dtype == complex
        for (a, d, l), lam, c in zip(GRID, self.COUPLINGS, values):
            assert c == route(a, a + d, l, lam)

    def test_pd_rows_match_0d_calls(self):
        gaps = sorted({g for a, d, _ in GRID for g in (a, a + d)}) + [0.0]
        lams = np.resize(self.COUPLINGS, len(gaps))
        lams[-1] = 1.0  # the zero-gap anchor
        values, extrapolants = pd_double_integral(gaps, lams, return_extrapolants=True)
        assert values.dtype == float and extrapolants.shape == (len(gaps), 3)
        for gap, lam, p, diag in zip(gaps, lams, values, extrapolants):
            p1, diag1 = pd_double_integral(gap, lam, return_extrapolants=True)
            assert p == p1 and np.array_equal(diag, diag1)

    def test_broadcast_shape(self):
        p = pd_double_integral([[0.5], [2.0]], [0.1, 0.2, 0.3])
        assert p.shape == (2, 3)
        assert p[1, 2] == pytest.approx(pd_double_integral(2.0, 0.3), rel=1e-13)

    def test_0d_calls_return_python_numbers(self):
        # Python floats, numpy scalars and 0-d arrays are all 0-d calls; an
        # array of one row stays an array
        fine = OracleSettings(epsilon_schedule=(0.04, 0.02, 0.01, 0.005))
        for gap in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(pd_double_integral(gap, 0.1)) is float
            assert type(x_double_integral(gap, 0.75, 2.0, 0.1)) is complex
            assert type(x_single_integral_pv(gap, 0.75, 2.0, 0.1)) is complex
            assert type(c_quadrature(gap, 0.75, 2.0, 0.1)) is complex
            assert type(c_double_integral(gap, 0.75, 2.0, 0.1)) is complex
        p, p_diag = pd_double_integral(0.5, 0.1, fine, return_extrapolants=True)
        x, x_diag = x_double_integral(0.5, 0.75, 2.0, 0.1, fine, return_extrapolants=True)
        assert type(p) is float and type(x) is complex
        assert p_diag.shape == x_diag.shape == (4,)
        assert p_diag.dtype == x_diag.dtype == complex
        assert pd_double_integral([0.5], 0.1).shape == (1,)
        assert x_single_integral_pv([0.5], 0.75, 2.0, 0.1).shape == (1,)
        assert c_quadrature([0.5], 0.75, 2.0, 0.1).shape == (1,)

    def test_extrapolants_take_one_more_axis(self):
        fine = OracleSettings(epsilon_schedule=(0.04, 0.02, 0.01, 0.005))
        x, diag = x_double_integral([[0.5], [1.2]], 1.5, [0.5, 2.0, 6.0], 0.1,
                                    return_extrapolants=True)
        assert x.shape == (2, 3) and diag.shape == (2, 3, 3)
        assert np.array_equal(x, diag[..., -1])
        p, diag = pd_double_integral([[0.5], [2.0]], [0.1, 0.2], fine, return_extrapolants=True)
        assert p.shape == (2, 2) and diag.shape == (2, 2, 4)
        assert np.array_equal(p, diag[..., -1].real)

    def test_nonconvergent_pd_batch_raises_first_failing_row(self):
        # gaps 6 and 5.5 cancel to round-off (TestQuadratureErrorGuard), so
        # rows 1 and 2 both fail, but row 1 is the first
        pd_double_integral(1.0, 0.1)  # row 0 converges
        with pytest.raises(NonConvergence) as first:
            pd_double_integral(6.0, 0.2)
        with pytest.raises(NonConvergence) as err:
            pd_double_integral([1.0, 6.0, 5.5], [0.1, 0.2, 0.1])
        assert str(err.value) == str(first.value)

    def test_nonconvergent_x_batch_raises_first_failing_row(self):
        # rows 0 and 2 share a separation, so they are computed together,
        # but row 1 is the first to fail: x(4, 8, 8) cancels to round-off
        # (TestQuadratureErrorGuard)
        rows = [(0.5, 1.0, 2.0), (4.0, 8.0, 8.0), (1.0, 2.0, 2.0)]
        for row in rows[::2]:
            x_double_integral(*row, 0.1)
        with pytest.raises(NonConvergence) as first:
            x_double_integral(*rows[1], 0.1)
        a, b, l = np.transpose(rows)
        with pytest.raises(NonConvergence) as err:
            x_double_integral(a, b, l, 0.1)
        assert str(err.value) == str(first.value)

    def test_argument_errors_raise_for_the_whole_batch(self):
        with pytest.raises(ValueError):
            pd_double_integral([0.5, np.nan], 0.1)
        with pytest.raises(ValueError):
            pd_double_integral([0.5, 2.0], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            x_double_integral(0.5, 1.0, [2.0, 0.0], 0.1)
        with pytest.raises(ValueError):
            x_double_integral(0.5, [1.0, np.inf], 2.0, 0.1)

    def test_pv_rows_match_0d_calls(self):
        # mixed separations, per-row couplings, and the gaps in both orders
        rows = GRID + [(a + d, -d, l) for a, d, l in GRID[::4]]
        lams = np.resize(self.COUPLINGS, len(rows))
        a, d, l = np.transpose(rows)
        values = x_single_integral_pv(a, a + d, l, lams)
        assert values.shape == (len(rows),) and values.dtype == complex
        for (a, d, l), lam, x in zip(rows, lams, values):
            assert x == x_single_integral_pv(a, a + d, l, lam)

    def test_pv_rows_are_within_1e_8_of_the_closed_form(self):
        a, d, l = np.transpose(GRID)
        x = x_single_integral_pv(a, a + d, l, self.COUPLINGS)
        exact = correlation_x_values(a, d, l, self.COUPLINGS)
        assert np.all(np.abs(x - exact) <= 1e-8 * np.abs(exact))

    def test_pv_broadcast_shape(self):
        x = x_single_integral_pv([[0.5], [1.2]], 1.5, [0.5, 2.0, 6.0], 0.1)
        assert x.shape == (2, 3)
        assert x[1, 2] == x_single_integral_pv(1.2, 1.5, 6.0, 0.1)

    def test_nonconvergent_pv_batch_raises_first_failing_row(self):
        # at 4 nodes per panel rows 1 and 2 fail order doubling; row 1
        # shares its separation with rows 0 and 3, which pass, and row 2's
        # separation is summed first, but row 1 is the first to fail
        coarse = OracleSettings(quadrature_nodes=4)
        rows = [(0.5, 0.5, 1.0), (2.0, 10.0, 1.0), (0.5, 0.5, 0.5), (0.5, 0.75, 1.0)]
        for row in rows[::3]:
            x_single_integral_pv(*row, 0.1, coarse)
        messages = []
        for row in rows[1:3]:
            with pytest.raises(NonConvergence, match="order doubling moved") as one:
                x_single_integral_pv(*row, 0.1, coarse)
            messages.append(str(one.value))
        a, b, l = np.transpose(rows)
        with pytest.raises(NonConvergence) as err:
            x_single_integral_pv(a, b, l, 0.1, coarse)
        assert str(err.value) == messages[0] != messages[1]

    def test_pv_argument_errors_raise_for_the_whole_batch(self):
        with pytest.raises(ValueError, match="> 0"):
            x_single_integral_pv(0.5, 1.0, [2.0, 0.0], 0.1)
        with pytest.raises(ValueError, match="finite"):
            x_single_integral_pv(0.5, [1.0, np.nan], 2.0, 0.1)

    def test_pole_integral_rows_match_one_kappa_calls(self):
        kappa = np.array([0.0, 0.5, -1.3, 2.64, 7.0])
        pv = pv_gaussian_pole_integral(kappa, 2.0)
        assert pv.shape == kappa.shape
        assert all(p == pv_gaussian_pole_integral(k, 2.0) for k, p in zip(kappa, pv))
        assert np.ndim(pv_gaussian_pole_integral(0.5, 2.0)) == 0

    def test_rows_sharing_an_outer_frequency_match_0d_calls(self):
        # swapped gaps and equal gap sums share their separation's outer sums,
        # a repeated row shares everything, and every probability row has
        # outer frequency 0
        rows = [(0.5, 1.0, 2.0, 0.1), (1.0, 0.5, 2.0, 0.05), (0.75, 0.75, 2.0, 0.2),
                (0.5, 1.0, 2.0, 0.1), (0.5, 1.0, 6.0, 0.1), (0.2, 1.3, 6.0, 0.3),
                (1.5, 0.0, 0.5, 0.1)]
        a, b, l, lam = np.transpose(rows)
        values, extrapolants = x_double_integral(a, b, l, lam, return_extrapolants=True)
        for row, x, diag in zip(rows, values, extrapolants):
            x1, diag1 = x_double_integral(*row, return_extrapolants=True)
            assert x == x1 and np.array_equal(diag, diag1)
        gaps, lams = [0.5, 1.0, 0.5, 0.0, 1.0, 0.0, 2.64], [0.1, 0.1, 0.3, 1.0, 0.1, 0.1, 0.2]
        values, extrapolants = pd_double_integral(gaps, lams, return_extrapolants=True)
        for gap, lam, p, diag in zip(gaps, lams, values, extrapolants):
            p1, diag1 = pd_double_integral(gap, lam, return_extrapolants=True)
            assert p == p1 and np.array_equal(diag, diag1)

    def test_verify_builds_one_matrix_per_pole(self, monkeypatch):
        # the cross-Gaussian matrices are the oracle's only real 2-D
        # exponentials: one per separation for the correlations and one for
        # the probabilities, each over the half line of offsets only (both
        # halves from one matrix) and graded for the smallest regulator.
        # Each is multiplied once per distinct outer frequency.
        # The principal-value route makes one panel sum per separation and
        # order, and the closed forms are evaluated as arrays.
        shapes = []
        stacks = []
        called = []
        pv_sums = []
        for module in (oracle, cli):
            for name in ("assemble_rho", "c_quadrature", "concurrence"):
                monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name),
                                    raising=False)
        pole_integral = oracle.pv_gaussian_pole_integral

        def counting_pole_integral(kappa, l, order):
            pv_sums.append((np.size(kappa), l, order))
            return pole_integral(kappa, l, order)

        monkeypatch.setattr(oracle, "pv_gaussian_pole_integral", counting_pole_integral)

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, **kwargs):
                if np.ndim(x) == 2 and np.isrealobj(x):
                    shapes.append(np.shape(x))
                return np.exp(x, **kwargs)

            @staticmethod
            def stack(arrays, **kwargs):
                out = np.stack(arrays, **kwargs)
                stacks.append(out.shape)
                return out

        monkeypatch.setattr(oracle, "np", CountingNumpy())
        checks = run_verification()
        assert len(checks) == 92 and all(c.passed for c in checks)
        assert not called
        t, _ = oracle._outer_rule(oracle._HALFWIDTH, oracle._OUTER_ORDER)
        smallest = DEFAULT_SETTINGS.epsilon_schedule[-1]
        half_line = [
            (t.size, oracle._panelize(oracle._graded_edges(p, smallest),
                                      DEFAULT_SETTINGS.quadrature_nodes)[0].size)
            for p in (0.5, 2.0, 6.0, 0.0)
        ]
        assert len(shapes) == 4 and shapes == half_line
        # the matrices' only products: per pole the outer rule's three probe
        # rows, and per distinct outer frequency the four rows of its outer
        # sums, one for each of the 27 (separation, gap sum) pairs and one for
        # the probabilities' frequency 0; no stack of kernel columns, so no
        # product per row or regulator
        assert stacks.count((3, t.size)) == 4 and stacks.count((4, t.size)) == 28
        assert len(stacks) == 32
        nodes = DEFAULT_SETTINGS.quadrature_nodes
        assert pv_sums == [(9, l, n) for n in (nodes, 2 * nodes) for l in (0.5, 2.0, 6.0)]


def _product_first_samples(settings, pole, outer_freq, later_k, earlier_k, prefactor):
    """One row's regulated samples of the double integral summed the other
    way round: per regulator, the matrix times the kernel columns first,
    then the outer time sum."""
    schedule = settings.epsilon_schedule
    t, w = oracle._outer_rule(oracle._HALFWIDTH, oracle._OUTER_ORDER)
    edges = oracle._graded_edges(pole, schedule[-1])
    o, w_in = oracle._panelize(edges, settings.quadrature_nodes)
    m = np.exp(-((t[:, None] + 0.5 * o[None, :]) ** 2))
    window = w_in * np.exp(-o * o / 4.0)
    w_phase = w * np.exp(-1j * outer_freq * t)
    samples = []
    for eps in schedule:
        denom = (o + 1j * eps) ** 2 - pole * pole
        g = window * np.exp(1j * later_k * o) / denom
        h = g.conj() if earlier_k is None else window * np.exp(1j * earlier_k * o) / denom
        later, earlier = ((m @ k.real) + 1j * (m @ k.imag) for k in (g, h))
        samples.append(prefactor * (np.sum(w_phase * later) + np.sum(w_phase * earlier[::-1])))
    return np.array(samples)


class TestOuterSumOrder:
    """The double integrals take the outer time sum first.  That reorders a
    sum the round-off bound already covers: every regulated sample lies
    within its own bound of the sum taken the other way round."""

    @pytest.mark.parametrize("settings", [
        DEFAULT_SETTINGS,
        OracleSettings(quadrature_nodes=128),
        OracleSettings(epsilon_schedule=(0.05, 0.025, 0.0125, 0.00625)),
    ])
    def test_verify_samples_are_within_their_bound_of_the_product_first_sum(
        self, settings, monkeypatch
    ):
        seen = []
        limit = oracle._regulator_limit

        def spy(settings, samples, sample_error, rel_tol, weights):
            seen.append((np.array(samples), np.array(sample_error)))
            return limit(settings, samples, sample_error, rel_tol, weights)

        monkeypatch.setattr(oracle, "_regulator_limit", spy)
        checks = run_verification(settings)
        assert len(checks) == 92
        # verify's rows in call order: the correlations, then the
        # probabilities with the zero-gap anchor at unit coupling last
        lam = 0.1
        rows = [(l, a + a * (1.0 + r), -a * (1.0 + r), a * (1.0 + r), lam**2 / FOUR_PI / np.pi)
                for a, r, l in VERIFICATION_GRID]
        gaps = sorted({0.0, *(g for a, r, _ in VERIFICATION_GRID for g in (a, a * (1.0 + r)))})
        rows += [(0.0, 0.0, g, None, -(c**2) / FOUR_PI / np.pi)
                 for g, c in zip(gaps + [0.0], [lam] * len(gaps) + [1.0])]
        assert len(seen) == len(rows) == 38
        for row, (samples, bound) in zip(rows, seen):
            reference = _product_first_samples(settings, *row)
            assert np.all(np.abs(samples - reference) <= bound)


class TestQuadratureErrorGuard:
    """A double-integral sum of fixed size whose value falls exponentially
    with the gaps cancels to round-off; the oracles must refuse it rather
    than return it (without the guard these calls return values off by
    7.9, 4.5e3 and 3.2 relative)."""

    # at gap 3.8 the round-off bound of one half of the offset line is below
    # 1e-5 of the value, that of both halves above it
    @pytest.mark.parametrize("gap", [3.8, 5.5, 6.0])
    def test_probability_past_the_trusted_range_raises(self, gap):
        with pytest.raises(NonConvergence, match="cancels"):
            pd_double_integral(gap, 0.1)

    def test_correlation_past_the_trusted_range_raises(self):
        # x(4, 8, 8) is refused by the outer rule's certificate, x(0, 8, 10)
        # passes it and is refused as round-off
        with pytest.raises(NonConvergence, match="not certified at 16"):
            x_double_integral(4.0, 8.0, 8.0, 0.1)
        with pytest.raises(NonConvergence, match="cancels"):
            x_double_integral(0.0, 8.0, 10.0, 0.1)

    def test_probability_inside_the_trusted_range_is_accurate(self):
        p = pd_double_integral(3.5, 0.1)
        assert p == pytest.approx(transition_probability(3.5, 0.1), rel=1e-5)

    def test_verification_grid_passes_the_guard(self):
        assert all(c.passed for c in run_verification())


class TestOuterRule:
    """The outer time axis: mirror-symmetric nodes, one matrix for both
    offset signs, and a fixed order certified per pole group."""

    @pytest.mark.parametrize("order", [oracle._OUTER_ORDER])
    @pytest.mark.parametrize("halfwidth", [12.0, 8.0, 10.0])
    def test_nodes_are_bitwise_mirror_symmetric(self, order, halfwidth):
        t, w = oracle._outer_rule(halfwidth, order)
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])

    def test_reversed_rows_equal_a_separately_built_sign_minus_matrix(self, monkeypatch):
        # the sign -1 matrix built on its own is the oracle's matrix with its
        # rows reversed, and the samples summed over the outer time first,
        # the earlier half over the sign -1 matrix read in the oracle's row
        # order, are the oracle's bit for bit
        settings = DEFAULT_SETTINGS
        a, b, l, lam = np.array([0.2, 1.2, 0.5]), np.array([0.2, 2.64, 1.1]), 2.0, 0.1
        t, w = oracle._outer_rule(oracle._HALFWIDTH, oracle._OUTER_ORDER)
        # one node set for every regulator, graded for the smallest
        edges = oracle._graded_edges(l, settings.epsilon_schedule[-1])
        o, w_in = oracle._panelize(edges, settings.quadrature_nodes)
        sign_minus = np.exp(-((t[:, None] - 0.5 * o[None, :]) ** 2))
        matrices = []

        class MatrixNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, **kwargs):
                out = np.exp(x, **kwargs)
                if np.ndim(x) == 2 and np.isrealobj(x):
                    matrices.append(out.copy())
                return out

        monkeypatch.setattr(oracle, "np", MatrixNumpy())
        _, extrapolants = x_double_integral(a, b, l, lam, return_extrapolants=True)
        monkeypatch.undo()
        assert len(matrices) == 1 and np.array_equal(sign_minus, matrices[0][::-1])
        m = np.ascontiguousarray(sign_minus[::-1])
        window = w_in * np.exp(-o * o / 4.0)
        for row, diag in enumerate(extrapolants):
            w_phase = w * np.exp(-1j * (a + b)[row] * t)
            parts = np.stack([w_phase.real, w_phase.imag,
                              w_phase.real[::-1], w_phase.imag[::-1]]) @ m
            later, earlier = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
            samples = []
            for eps in settings.epsilon_schedule:
                denom = (o + 1j * eps) ** 2 - l * l
                q = [window * np.exp(1j * k[row] * o)[None, :] / denom for k in (-b, b)]
                total = np.sum(later * q[0] + earlier * q[1], axis=1)
                samples.append(lam**2 / (4.0 * np.pi**2) * total[0])
            assert np.array_equal(diag, extrapolate_to_zero(settings.epsilon_schedule, samples))

    def test_verification_grid_is_certified_at_16_nodes(self):
        # every pole group of verify's batches passes the certificate
        a, r, l = np.transpose(VERIFICATION_GRID)
        x_double_integral(a, a * (1.0 + r), l, 0.1)
        pd_double_integral(np.concatenate([a, a * (1.0 + r), [0.0]]), 0.1)

    @pytest.mark.parametrize("gap", [6.5, 150.0])
    def test_raises_when_the_outer_rule_fails_its_certificate(self, gap):
        # outer frequencies of 13 and 300: more nodes would only certify a
        # value that cancels to round-off (13) or resolve nothing (300)
        with pytest.raises(NonConvergence, match="outer quadrature not certified at 16"):
            x_double_integral(gap, gap, 2.0, 0.1)

    def test_a_failed_certificate_fails_the_whole_batch(self):
        # x(0.5, 0.5, 1) returns on its own; its batch-mate at separation 2
        # has outer frequency 300, and the refusal names it
        x_double_integral(0.5, 0.5, 1.0, 0.1)
        with pytest.raises(NonConvergence, match="not certified at 16 .* 3.000e[+]02"):
            x_double_integral([0.5, 150.0], [0.5, 150.0], [1.0, 2.0], 0.1)
