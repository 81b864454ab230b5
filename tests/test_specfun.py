"""Error-function family: frozen high-precision oracles and identities.

The derived expectations below were computed with the independent oracles
implemented in this file (Maclaurin series, extended-precision quadrature,
and a Taylor/continued-fraction pair for the Faddeeva function, all running
on mpmath arithmetic) and frozen as literals; the tests recompute the
oracles and check both the cross-agreement of the schemes and the library
values against them.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from udwharvest.specfun import erf_real, erfcx_real, faddeeva_w

# frozen oracle outputs (40-digit working precision, see oracle functions below)
ERF_1 = 0.8427007929497148693412206350826092592961
ERF_07 = 0.6778011938374184729756288463458765523450
ERFCX_1 = 0.4275835761558070044123954152991080902387
W_2_05I = 0.10335882374136665895 + 0.28478588475009374558j


def erf_maclaurin(x, terms=30):
    """Independent oracle: truncated Maclaurin series of the error function."""
    total = mp.mpf(0)
    x = mp.mpf(x)
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (mp.factorial(n) * (2 * n + 1))
    return 2 / mp.sqrt(mp.pi) * total


def erfcx_quadrature(x):
    """Independent oracle: extended-precision quadrature of the defining
    integral, exp(x^2) * (2/sqrt(pi)) * int_x^inf exp(-t^2) dt."""
    x = mp.mpf(x)
    return mp.e**(x * x) * 2 / mp.sqrt(mp.pi) * mp.quad(lambda t: mp.e**(-t * t), [x, mp.inf])


def w_taylor(z, terms=160):
    """Faddeeva oracle one: Maclaurin series sum (iz)^n / Gamma(n/2 + 1)."""
    total = mp.mpc(0)
    iz = 1j * mp.mpc(z)
    for n in range(terms):
        total += iz**n / mp.gamma(mp.mpf(n) / 2 + 1)
    return total


def w_continued_fraction(z, levels=800):
    """Faddeeva oracle two: Laplace continued fraction, evaluated bottom-up.
    Valid for Im(z) > 0."""
    z = mp.mpc(z)
    tail = mp.mpc(0)
    for k in range(levels, 0, -1):
        tail = (mp.mpf(k) / 2) / (z - tail)
    return 1j / mp.sqrt(mp.pi) / (z - tail)


@pytest.fixture(autouse=True, scope="module")
def _precision():
    with mp.workdps(40):
        yield


class TestErfReal:
    def test_zero(self):
        assert erf_real(0.0) == 0.0

    def test_odd_symmetry(self):
        assert erf_real(0.7) == -erf_real(-0.7)
        assert abs(erf_real(0.7) - ERF_07) < 1e-14

    def test_against_series_oracle(self):
        oracle = float(erf_maclaurin(1.0))
        assert abs(oracle - ERF_1) < 1e-16
        assert abs(erf_real(1.0) - oracle) < 1e-12


class TestErfcxReal:
    def test_zero(self):
        assert erfcx_real(0.0) == 1.0

    def test_large_argument_asymptote(self):
        x = 50.0
        assert abs(erfcx_real(x) - 1.0 / (x * math.sqrt(math.pi))) < 1e-3 * erfcx_real(x)

    def test_against_quadrature_oracle(self):
        oracle = float(erfcx_quadrature(1.0))
        assert abs(oracle - ERFCX_1) < 1e-16
        assert abs(erfcx_real(1.0) - oracle) < 1e-12

    def test_positive_and_decreasing(self):
        xs = np.linspace(0.0, 30.0, 301)
        vals = erfcx_real(xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestFaddeeva:
    def test_zero(self):
        assert faddeeva_w(0.0) == 1.0 + 0.0j

    def test_reflection_at_point(self):
        z = 1.0 + 1.0j
        lhs = faddeeva_w(-z)
        rhs = 2.0 * np.exp(-z * z) - faddeeva_w(z)
        assert abs(lhs - rhs) < 1e-13

    def test_against_dual_scheme_oracle(self):
        z = 2.0 + 0.5j
        taylor = w_taylor(z)
        cfrac = w_continued_fraction(z)
        assert abs(taylor - cfrac) < mp.mpf("1e-15")
        oracle = complex(taylor)
        assert abs(oracle - W_2_05I) < 1e-15
        assert abs(faddeeva_w(z) - oracle) < 1e-10 * abs(oracle)


def _stratified_upper_half_plane(seed, n=256):
    """n points over 0 <= Re z <= 120, 0 <= Im z <= 17.5, each coordinate
    drawn once per equal-width stratum, plus the real axis and the
    rectangle's corners: the closed forms evaluate w at z = (l + id)/2 with
    d in [0, 35] and l up to 4 sqrt(a (a + d)) <= 220 for gaps a <= 40."""
    rng = np.random.default_rng(seed)
    x, y = ((rng.permutation(n) + rng.random(n)) / n * hi for hi in (120.0, 17.5))
    edges = [0.0, 1e-3, 1.0, 5.0, 27.3, 60.0, 120.0]
    return np.concatenate([x + 1j * y, edges, np.array(edges) + 17.5j])


def w_reference(z):
    """w(z) = exp(-z^2) erfc(-iz) at 50 digits."""
    with mp.workdps(50):
        z = mp.mpc(z)
        return mp.exp(-z * z) * mp.erfc(-1j * z)


class TestFaddeevaWhereTheClosedFormsEvaluateIt:
    def test_reference_agrees_with_the_continued_fraction(self):
        with mp.workdps(50):
            for z in (30.0 + 2.0j, 100.0 + 17.5j, 7.0 + 10.0j):
                want = w_continued_fraction(z)
                assert abs(w_reference(z) - want) <= mp.mpf("1e-40") * abs(want)

    def test_relative_error_against_50_digits(self):
        z = _stratified_upper_half_plane(40)
        got = faddeeva_w(z)
        worst = max(abs(mp.mpc(g) - w) / abs(w) for g, w in zip(got, map(w_reference, z)))
        # about 2e-15 with scipy 1.17
        assert worst < 1e-12


class TestIdentities:
    """Random-grid invariants tying the three functions together."""

    def test_reflection_identity(self):
        rng = np.random.default_rng(20240817)
        r = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
        phi = rng.uniform(0.0, np.pi, 1000)
        # lower half-plane sampling keeps the exponentially large side of the
        # identity on w(z), which is what the tolerance is scaled by; the
        # identity is symmetric under z -> -z so nothing is lost
        z = r * np.cos(phi) - 1j * r * np.sin(phi)
        lhs = faddeeva_w(-z)
        rhs = 2.0 * np.exp(-z * z) - faddeeva_w(z)
        tol = 1e-9 * np.maximum(1.0, np.abs(faddeeva_w(z)))
        assert np.all(np.abs(lhs - rhs) <= tol)

    def test_conjugation_identity(self):
        rng = np.random.default_rng(915)
        r = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
        phi = rng.uniform(0.0, 2.0 * np.pi, 1000)
        z = r * np.exp(1j * phi)
        lhs = faddeeva_w(np.conj(-z))
        rhs = np.conj(faddeeva_w(z))
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.maximum(1.0, np.abs(rhs)))

    def test_erfcx_is_faddeeva_on_imaginary_axis(self):
        xs = np.linspace(0.0, 12.0, 500)
        assert np.max(np.abs(erfcx_real(xs) - faddeeva_w(1j * xs).real)) < 1e-10
