"""Integral oracles: agreement with closed forms, regulator convergence,
quadrature stability, and the assembled joint state."""

import numpy as np
import pytest

from udwharvest import (
    DEFAULT_SETTINGS,
    DetectorPairConfig,
    Method,
    NonConvergence,
    OracleSettings,
    assemble_rho,
    c_double_integral,
    c_quadrature,
    concurrence,
    correlation_x,
    pd_double_integral,
    pd_double_integral_many,
    pv_gaussian_pole_integral,
    transition_probability,
    x_double_integral,
    x_double_integral_many,
    x_single_integral_pv,
)
from udwharvest import cli, oracle
from udwharvest.cli import VERIFICATION_GRID, run_verification
from udwharvest.oracle import extrapolate_to_zero, harvest_report

FOUR_PI = 4.0 * np.pi
# a non-asymptotic regulator schedule whose extrapolation cannot converge
COARSE_SCHEDULE = OracleSettings(epsilon_schedule=(0.9, 0.85))

GRID = [
    (a, a * r, l)
    for a in (0.2, 0.5, 1.2)
    for r in (0.0, 0.5, 1.2)
    for l in (0.5, 2.0, 6.0)
]


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
    lambda s: x_double_integral(DetectorPairConfig(0.5, 0.25, 0.5), s),
    lambda s: c_double_integral(DetectorPairConfig(0.5, 0.25, 0.5), s),
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
            oracle._regulator_limit(DEFAULT_SETTINGS, [sample, 1.0, 1.0], np.zeros(3), 1e-3)


def test_extrapolate_to_zero_polynomial_exact():
    # degree-2 polynomial data must extrapolate exactly
    eps = (0.4, 0.2, 0.1)
    f = lambda e: 3.0 - 2.0 * e + 5.0 * e * e
    diag = extrapolate_to_zero(eps, [f(e) for e in eps])
    assert diag[-1] == pytest.approx(3.0, rel=1e-13)


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


class TestCorrelationPVOracle:
    @pytest.mark.parametrize(
        "a,d,l",
        [(0.5, 0.0, 1.0), (1.2, 1.44, 4.0), (0.5, 0.5, 2.0)],
    )
    def test_matches_closed_form(self, a, d, l):
        cfg = DetectorPairConfig(a, d, l, 0.1)
        x = x_single_integral_pv(cfg)
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
        x = x_single_integral_pv(cfg)
        assert x.imag == pytest.approx(pref * pv.imag, rel=1e-10)
        # and the odd component is genuinely what carries it
        pv_even = pv_gaussian_pole_integral(0.0, l)
        assert abs(pv_even.imag) < 1e-14


class TestCorrelationDoubleIntegralOracle:
    def test_matches_closed_form(self):
        cfg = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
        x = x_double_integral(cfg)
        x_exact = correlation_x(cfg)
        assert abs(x - x_exact) <= 1e-3 * abs(x_exact)

    def test_nonconvergent_schedule_raises(self):
        # this returned a value 12 % off while the regulator check was
        # absolute below 1e-3 of the coupling scale
        cfg = DetectorPairConfig.with_omega_b(3.0, 4.0, 2.0, 0.1)
        with pytest.raises(NonConvergence, match="regulator extrapolation"):
            x_double_integral(cfg, COARSE_SCHEDULE)

    def test_swap_symmetry(self):
        # relabeling which static detector carries which gap cannot matter
        x_ab, x_ba = x_double_integral_many([0.3, 0.7], [0.7, 0.3], 1.5, 0.1, DEFAULT_SETTINGS)
        assert abs(x_ab - x_ba) <= 1e-3 * abs(x_ab)

    def test_quadratic_coupling_scaling(self):
        cfg1 = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)
        cfg2 = DetectorPairConfig(0.5, 0.25, 2.0, 0.2)
        x1, x2 = x_double_integral(cfg1), x_double_integral(cfg2)
        assert abs(x2 - 4.0 * x1) <= 1e-12 * abs(x2)


class TestExchangeCorrelation:
    def test_stable_under_node_doubling(self):
        cfg = DetectorPairConfig(0.5, 0.0, 2.0, 0.1)
        c64 = c_quadrature(cfg, OracleSettings(quadrature_nodes=64))
        c128 = c_quadrature(cfg, OracleSettings(quadrature_nodes=128))
        assert abs(c64 - c128) <= 1e-8 * abs(c64)

    def test_quadratic_coupling_scaling(self):
        c1 = c_quadrature(DetectorPairConfig(0.5, 0.25, 2.0, 0.1))
        c2 = c_quadrature(DetectorPairConfig(0.5, 0.25, 2.0, 0.2))
        assert abs(c2 - 4.0 * c1) <= 1e-12 * abs(c2)

    @pytest.mark.parametrize(
        "a,d,l", [(0.5, 0.5, 2.0), (0.2, 0.0, 0.5), (1.2, 0.6, 0.5), (0.5, 0.0, 2.0),
                  (1.2, 0.0, 6.0), (0.2, 0.24, 6.0)],
    )
    def test_dual_path_agreement(self, a, d, l):
        # the double integral's earlier half is the conjugate of its later
        # half; c_quadrature shares none of that route
        cfg = DetectorPairConfig(a, d, l, 0.1)
        c_pv = c_quadrature(cfg)
        c_direct = c_double_integral(cfg)
        assert abs(c_pv - c_direct) <= 1e-3 * abs(c_pv)


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

    def test_oracle_report(self):
        cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)
        rep = harvest_report(cfg, include_c=True)
        assert rep.method is Method.ORACLE_SINGLE_INTEGRAL
        assert rep.c_corr is not None
        ref = concurrence(cfg)
        assert rep.concurrence == pytest.approx(ref.concurrence, rel=1e-3)
        assert rep.p_a == pytest.approx(ref.p_a, rel=1e-4)


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
        _, diag = x_double_integral(cfg, return_extrapolants=True)
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
        x64 = x_double_integral(cfg)
        x128 = x_double_integral(cfg, OracleSettings(quadrature_nodes=128))
        assert abs(x64 - x128) <= 1e-3 * abs(x64)
        # the PV route self-checks by doubling internally; run it for effect
        x_single_integral_pv(cfg)


class TestBatchedOracles:
    """A batched row is its one-problem call: the rows of a batch share the
    cross-Gaussian matrices, never the numbers that make a row differ."""

    # per-row couplings, so that rows sharing a matrix differ in scale too
    COUPLINGS = np.resize([0.1, 0.05, 0.2], len(GRID))

    def test_x_rows_match_one_problem_calls(self):
        a, d, l = np.transpose(GRID)
        values, extrapolants = x_double_integral_many(
            a, a + d, l, self.COUPLINGS, return_extrapolants=True
        )
        assert values.shape == (len(GRID),) and extrapolants.shape == (len(GRID), 3)
        for (a, d, l), lam, x, diag in zip(GRID, self.COUPLINGS, values, extrapolants):
            x1, diag1 = x_double_integral(
                DetectorPairConfig(a, d, l, lam), return_extrapolants=True
            )
            assert x == x1 and np.array_equal(diag, diag1)

    def test_pd_rows_match_one_problem_calls(self):
        gaps = sorted({g for a, d, _ in GRID for g in (a, a + d)}) + [0.0]
        lams = np.resize(self.COUPLINGS, len(gaps))
        lams[-1] = 1.0  # the zero-gap anchor
        values, extrapolants = pd_double_integral_many(gaps, lams, return_extrapolants=True)
        assert values.dtype == float and extrapolants.shape == (len(gaps), 3)
        for gap, lam, p, diag in zip(gaps, lams, values, extrapolants):
            p1, diag1 = pd_double_integral(gap, lam, return_extrapolants=True)
            assert p == p1 and np.array_equal(diag, diag1)

    def test_broadcast_shape(self):
        p = pd_double_integral_many([[0.5], [2.0]], [0.1, 0.2, 0.3])
        assert p.shape == (2, 3)
        assert p[1, 2] == pytest.approx(pd_double_integral(2.0, 0.3), rel=1e-13)

    def test_nonconvergent_pd_batch_raises_first_failing_row(self):
        # gaps 6 and 5.5 cancel to round-off (TestQuadratureErrorGuard), so
        # rows 1 and 2 both fail, but row 1 is the first
        pd_double_integral(1.0, 0.1)  # row 0 converges
        with pytest.raises(NonConvergence) as first:
            pd_double_integral(6.0, 0.2)
        with pytest.raises(NonConvergence) as err:
            pd_double_integral_many([1.0, 6.0, 5.5], [0.1, 0.2, 0.1])
        assert str(err.value) == str(first.value)

    def test_nonconvergent_x_batch_raises_first_failing_row(self):
        # rows 0 and 2 share a separation, so they are computed together,
        # but row 1 is the first to fail: x(4, 8, 8) cancels to round-off
        # (TestQuadratureErrorGuard)
        rows = [(0.5, 1.0, 2.0), (4.0, 8.0, 8.0), (1.0, 2.0, 2.0)]
        for row in rows[::2]:
            x_double_integral(DetectorPairConfig.with_omega_b(*row, 0.1))
        with pytest.raises(NonConvergence) as first:
            x_double_integral(DetectorPairConfig.with_omega_b(*rows[1], 0.1))
        a, b, l = np.transpose(rows)
        with pytest.raises(NonConvergence) as err:
            x_double_integral_many(a, b, l, 0.1)
        assert str(err.value) == str(first.value)

    def test_argument_errors_raise_for_the_whole_batch(self):
        with pytest.raises(ValueError):
            pd_double_integral_many([0.5, np.nan], 0.1)
        with pytest.raises(ValueError):
            pd_double_integral_many([0.5, 2.0], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            x_double_integral_many(0.5, 1.0, [2.0, 0.0], 0.1)
        with pytest.raises(ValueError):
            x_double_integral_many(0.5, [1.0, np.inf], 2.0, 0.1)

    def test_verify_builds_one_matrix_per_pole_and_regulator(self, monkeypatch):
        # the cross-Gaussian matrices are the oracle's only real 2-D
        # exponentials; 3 separations x 3 regulators for the correlations
        # plus 3 regulators for the probabilities, each over the half line
        # of offsets only (both halves from one matrix)
        shapes = []
        called = []
        for module in (oracle, cli):
            for name in ("assemble_rho", "c_quadrature"):
                monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name),
                                    raising=False)

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, **kwargs):
                if np.ndim(x) == 2 and np.isrealobj(x):
                    shapes.append(np.shape(x))
                return np.exp(x, **kwargs)

        monkeypatch.setattr(oracle, "np", CountingNumpy())
        checks = run_verification()
        assert len(checks) == 92 and all(c.passed for c in checks)
        assert not called
        t, _ = oracle._outer_rule(oracle._HALFWIDTH, oracle._OUTER_ORDER)
        half_line = [
            (t.size, oracle._panelize(oracle._graded_edges(0.0, oracle._HALFWIDTH + 2.0, [p], eps),
                                      DEFAULT_SETTINGS.quadrature_nodes)[0].size)
            for p in (0.5, 2.0, 6.0, 0.0)
            for eps in DEFAULT_SETTINGS.epsilon_schedule
        ]
        assert len(shapes) == 12 and shapes == half_line


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
            x_double_integral(DetectorPairConfig.with_omega_b(4.0, 8.0, 8.0, 0.1))
        with pytest.raises(NonConvergence, match="cancels"):
            x_double_integral(DetectorPairConfig.with_omega_b(0.0, 8.0, 10.0, 0.1))

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

    def test_reversed_rows_equal_a_separately_built_sign_minus_matrix(self):
        # the sign -1 samples from their own matrix, otherwise exactly as
        # the oracle computes them
        settings = DEFAULT_SETTINGS
        a, b, l, lam = np.array([0.2, 1.2, 0.5]), np.array([0.2, 2.64, 1.1]), 2.0, 0.1
        t, w = oracle._outer_rule(oracle._HALFWIDTH, oracle._OUTER_ORDER)
        w_phase = w * np.exp(-1j * (a + b)[:, None] * t)
        samples = []
        for eps in settings.epsilon_schedule:
            edges = oracle._graded_edges(0.0, oracle._HALFWIDTH + 2.0, [l], eps)
            o, w_in = oracle._panelize(edges, settings.quadrature_nodes)
            window = w_in * np.exp(-o * o / 4.0)
            denom = (o + 1j * eps) ** 2 - l * l
            q = [window * np.exp(1j * k[:, None] * o) / denom for k in (-b, b)]
            columns = np.stack([part for qk in q for part in (qk.real, qk.imag)], axis=-1)
            total = 0.0
            for i, sign in enumerate((1.0, -1.0)):
                ri = np.exp(-((t[:, None] + 0.5 * sign * o[None, :]) ** 2)) @ columns
                z = ri[:, :, 2 * i] + 1j * ri[:, :, 2 * i + 1]
                total = total + np.sum(w_phase * z, axis=1)
            samples.append(lam**2 / (4.0 * np.pi**2) * total)
        _, extrapolants = x_double_integral_many(a, b, l, lam, return_extrapolants=True)
        for row, diag in enumerate(extrapolants):
            expected = extrapolate_to_zero(settings.epsilon_schedule, [s[row] for s in samples])
            assert np.array_equal(diag, expected)

    def test_verification_grid_is_certified_at_16_nodes(self):
        # every pole group of verify's batches passes the certificate
        a, r, l = np.transpose(VERIFICATION_GRID)
        x_double_integral_many(a, a * (1.0 + r), l, 0.1)
        pd_double_integral_many(np.concatenate([a, a * (1.0 + r), [0.0]]), 0.1)

    @pytest.mark.parametrize("gap", [6.5, 150.0])
    def test_raises_when_the_outer_rule_fails_its_certificate(self, gap):
        # outer frequencies of 13 and 300: more nodes would only certify a
        # value that cancels to round-off (13) or resolve nothing (300)
        with pytest.raises(NonConvergence, match="outer quadrature not certified at 16"):
            x_double_integral_many(gap, gap, 2.0, 0.1)

    def test_a_failed_certificate_fails_the_whole_batch(self):
        # x(0.5, 0.5, 1) returns on its own; its batch-mate at separation 2
        # has outer frequency 300, and the refusal names it
        x_double_integral_many(0.5, 0.5, 1.0, 0.1)
        with pytest.raises(NonConvergence, match="not certified at 16 .* 3.000e[+]02"):
            x_double_integral_many([0.5, 150.0], [0.5, 150.0], [1.0, 2.0], 0.1)
