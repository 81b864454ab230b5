"""Closed forms for the harvested entanglement of two static detectors.

A scenario is the dimensionless 4-tuple (omega_a_sigma, delta_omega_sigma,
l_over_sigma, coupling): the smaller energy gap, the gap difference, and
the detector separation, all rescaled by the Gaussian switching duration,
plus the weak coupling constant.  Every public quantity is a pure function
of that tuple; the switching duration never appears on its own.

The three ingredients of the entanglement measure are

* ``transition_probability`` -- single-detector excitation probability,
* ``correlation_x`` -- the amplitude coupling the doubly-ground and
  doubly-excited states,
* ``concurrence`` -- 2 * max(0, |X| - sqrt(P_A * P_B)).

The correlation amplitude is evaluated through the Faddeeva function so
that every intermediate stays of order one: the nominal expression pairs an
exponentially small prefactor with exponentially large Erfi factors whose
naive evaluation overflows once the separation exceeds a few dozen
switching times.  At large gaps P_A P_B, and |X| with it, leave the
double range while the harvesting excess is still decided by their ratio;
where P_A P_B is not a normal double the excess is therefore evaluated as
E S, with the scaled excess S = |X|/E - sqrt(P_A P_B)/E of order one and
E = exp(-(a^2 + b^2)/2) (:func:`correlation_excess`).  The separation
searches decide every scenario by S at unit coupling (S scales by its
square), from its terms |X|/E (a function of the gap difference and the
separation alone) and sqrt(P_A P_B)/E, from bounds on |X|/E that cost no
Faddeeva evaluation, and from the slope of |X|/E in the separation
(:func:`_x_abs`, :func:`_scaled_gm`, :func:`_scaled_x_envelope`,
:func:`_x_abs_slope`).  The upper bound takes
w(z) to third order in 1/|z|, with a remainder bounded by
Phragmen-Lindelof, and lies within about 0.1 % of |X|/E at large
separations.

Asymptotic approximations (small/large gaps, small/large separations) and
two back-of-envelope estimates (the maximum harvesting-achievable
separation at large gaps, and the derivative of the concurrence with
respect to the gap difference) are provided for cross-checking the exact
expressions and for seeding searches.
"""

from __future__ import annotations

import enum
import functools
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import erf_real, erfcx_real, faddeeva_w

__all__ = [
    "MAX_DELTA_OMEGA_SIGMA",
    "COUPLING_WARN_THRESHOLD",
    "GapRegime",
    "SeparationRegime",
    "ConcurrenceRegime",
    "DetectorPairConfig",
    "HarvestReport",
    "transition_probability",
    "geometric_mean_probability",
    "correlation_x_values",
    "correlation_x",
    "correlation_excess",
    "concurrence_values",
    "concurrence",
    "asymptotic_gm_probability",
    "asymptotic_x",
    "asymptotic_concurrence",
    "lmax_large_gap_estimate",
    "concurrence_gap_derivative_estimate",
]

_SQRT_PI = np.sqrt(np.pi)

# Largest admitted gap difference (in units of 1/sigma).  Beyond this even
# the residual exp(d^2/4) factors that appear in intermediate scaled-Erfi
# values would leave the double-precision range.
MAX_DELTA_OMEGA_SIGMA = 35.0

# Couplings above this are outside any reasonable perturbative regime.
COUPLING_WARN_THRESHOLD = 0.3


class GapRegime(enum.Enum):
    SMALL_GAPS = "small-gaps"
    LARGE_GAPS = "large-gaps"


class SeparationRegime(enum.Enum):
    SMALL_SEPARATION = "small-separation"
    LARGE_SEPARATION = "large-separation"


class ConcurrenceRegime(enum.Enum):
    SMALL_SEPARATION = "small-separation"
    LARGE_SEPARATION_LARGE_GAPS = "large-separation-large-gaps"


# The domain :class:`DetectorPairConfig` admits, one rule per variable, in
# checking order: (name, low, high, message below low, message above high).
# Every admitted value is finite and lies in [low, high]; the smallest
# positive double as low admits exactly the positive values.
_LARGEST, _SMALLEST = np.finfo(float).max, np.nextafter(0.0, 1.0)
# The largest coupling for which the largest P_A P_B, (coupling^2/4 pi)^2 at
# zero gap, is a finite double: above it the product overflows, and the
# concurrence with it
_MAX_COUPLING = float(np.sqrt(4.0 * np.pi) * _LARGEST**0.25)
# The largest smaller gap a for which X's prefactor exp(-(2a + d)^2/4)
# squares 2a + d to a finite double: there the gap difference d <= 35 lies
# far below half an ulp of 2a, so 2a + d rounds to 2a, whose square
# overflows above sqrt(largest double)
_MAX_OMEGA_A = float(np.sqrt(_LARGEST) / 2.0)
# The largest separation l whose square l*l, in X's exp(-l^2/4) and the
# terms built on it, is a finite double
_MAX_SEPARATION = float(np.sqrt(_LARGEST))
# The smallest separation at which the concurrence of every admitted
# scenario is a finite double.  As l -> 0, X's bracket tends to 2 (its
# Faddeeva difference is O(l)), so the concurrence tends to coupling^2
# exp(-(2a + d)^2/4)/(2 sqrt(pi) l): largest at zero gaps and the largest
# coupling, whose square is 4 pi sqrt(largest double), where it is the
# largest double at l = 2 sqrt(pi)/sqrt(largest double)
_MIN_SEPARATION = float(2.0 * _SQRT_PI / np.sqrt(_LARGEST))
_SEPARATION_BELOW = (
    f"l_over_sigma must be >= {_MIN_SEPARATION!r} = 2 sqrt(pi)/sqrt(largest double); the "
    "concurrence, coupling^2/(2 sqrt(pi) l_over_sigma) at zero gaps as the separation tends to "
    "zero, would overflow double precision below it at the largest coupling")
_DOMAIN = (
    ("omega_a_sigma", 0.0, _MAX_OMEGA_A, "omega_a_sigma must be >= 0 (A has the smaller gap)",
     f"omega_a_sigma={{}} exceeds {_MAX_OMEGA_A!r} = sqrt(largest double)/2; "
     "(2 omega_a_sigma + delta_omega_sigma)^2 in X's prefactor would overflow double precision"),
    ("delta_omega_sigma", 0.0, MAX_DELTA_OMEGA_SIGMA,
     "delta_omega_sigma must be >= 0 (A has the smaller gap)",
     f"delta_omega_sigma={{}} exceeds {MAX_DELTA_OMEGA_SIGMA}; "
     "scaled intermediates would overflow double precision"),
    ("l_over_sigma", _MIN_SEPARATION, _MAX_SEPARATION, _SEPARATION_BELOW,
     f"l_over_sigma={{}} exceeds {_MAX_SEPARATION!r} = sqrt(largest double); "
     "l_over_sigma^2 would overflow double precision"),
    ("coupling", _SMALLEST, _MAX_COUPLING, "coupling must be > 0",
     f"coupling={{}} exceeds {_MAX_COUPLING!r}; P_A P_B, (coupling^2/4 pi)^2 at zero gap, "
     "would overflow double precision"),
)
_DOMAIN_LOW, _DOMAIN_HIGH = (np.array([rule[i] for rule in _DOMAIN])[:, None] for i in (1, 2))


def _domain_errors(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """Per scenario, the message of the first domain rule it breaks, or "":
    the one statement of the domain :class:`DetectorPairConfig` admits.
    Accepts arrays; returns a 1-D object array over the broadcast points.
    A non-finite value breaks the first rules, in the order of the
    variables; then each variable's range is checked in turn."""
    values = np.broadcast_arrays(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling)
    stacked = np.array(values, dtype=float).reshape(len(_DOMAIN), -1)
    # a NaN fails both comparisons
    admitted = ((stacked >= _DOMAIN_LOW) & (stacked <= _DOMAIN_HIGH)).all(axis=0)
    errors = np.full(admitted.size, "", dtype=object)
    if not admitted.all():
        values = [np.ravel(v) for v in values]
        for i in np.flatnonzero(~admitted):
            errors[i] = _domain_error([v[i].item() for v in values])
    return errors


def _domain_error(values):
    """The message of the first rule of ``_DOMAIN`` that the scenario's
    values (Python numbers, one per rule) break."""
    for (name, *_), v in zip(_DOMAIN, values):
        if not np.isfinite(v):
            return f"{name} must be finite, got {v!r}"
    for (_, low, high, below, above), v in zip(_DOMAIN, values):
        if v < low:
            return below
        if v > high:
            return above.format(v)
    return ""


def _check_domain(a, d, l, coupling):
    """Raise ValueError with the message of the first scenario outside the
    domain :class:`DetectorPairConfig` admits: the one check that the
    config and the batch searches make."""
    bad = [e for e in _domain_errors(a, d, l, coupling) if e]
    if bad:
        raise ValueError(bad[0])


def _check_separation(l):
    """Raise the domain's ValueError where a separation (numpy scalar or
    array) lies below ``_MIN_SEPARATION``."""
    if _any(l < _MIN_SEPARATION):
        raise ValueError(_SEPARATION_BELOW)


def _warn_strong_coupling(coupling):
    """Warn, naming the first caller outside this module, that a coupling
    above ``COUPLING_WARN_THRESHOLD`` is outside the weak-coupling regime.
    :class:`DetectorPairConfig` calls it on every scenario it admits."""
    if coupling > COUPLING_WARN_THRESHOLD:
        warnings.warn(
            f"coupling={coupling} is outside the weak-coupling regime "
            f"(> {COUPLING_WARN_THRESHOLD}); second-order results are unreliable",
            stacklevel=_caller_stacklevel(),
        )


def _caller_stacklevel():
    """The ``stacklevel`` at which a warning issued by the caller names the
    first frame outside this module, however many of its frames lie
    between (the ``__init__`` a dataclass generates runs in this module's
    globals, so it counts as one of them)."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class DetectorPairConfig:
    """Dimensionless scenario: gaps and separation rescaled by the
    switching duration, plus the coupling constant.

    Conventions: detector A carries the smaller gap, so the gap difference
    is non-negative; the separation must be positive (the point-detector
    correlation amplitude diverges at zero separation), and at least
    ``_MIN_SEPARATION``, below which the concurrence may overflow; the
    coupling must be positive and should be small.
    """

    omega_a_sigma: float
    delta_omega_sigma: float
    l_over_sigma: float
    coupling: float = 0.1

    def __post_init__(self):
        _check_domain(self.omega_a_sigma, self.delta_omega_sigma, self.l_over_sigma,
                      self.coupling)
        _warn_strong_coupling(self.coupling)

    @classmethod
    def with_omega_b(cls, omega_a_sigma, omega_b_sigma, l_over_sigma, coupling=0.1):
        """Build from both gaps (the domain refuses omega_b_sigma < omega_a_sigma)."""
        return cls(omega_a_sigma, omega_b_sigma - omega_a_sigma, l_over_sigma, coupling)

    @property
    def omega_b_sigma(self) -> float:
        return self.omega_a_sigma + self.delta_omega_sigma


@dataclass(frozen=True)
class HarvestReport:
    """Transition probabilities, correlation amplitude, and concurrence for
    one scenario, from the closed forms (:func:`concurrence`)."""

    p_a: float
    p_b: float
    x: complex
    concurrence: float

    @property
    def x_abs(self) -> float:
        return float(np.abs(self.x))

    @property
    def geometric_mean(self) -> float:
        """sqrt(P_A P_B) (:func:`_sqrt_product`)."""
        return _sqrt_product(self.p_a, self.p_b)


def transition_probability(omega_sigma, coupling):
    """Excitation probability of a single Gaussian-switched static detector.

    For gap x = omega*sigma (any sign; negative values describe an inverted
    detector and are admitted for exploratory use):

        P = (coupling^2 / 4 pi) * [exp(-x^2) - sqrt(pi) * x * erfc(x)]

    evaluated via erfcx so that no exponential ever materializes.  Strictly
    positive and strictly decreasing in x wherever the true value is
    representable; beyond x ~ 27.5 it underflows to the correctly rounded
    zero.  Accepts arrays.
    """
    return _scalar(_probability(omega_sigma, _probability_bracket(omega_sigma), coupling))


def _scalar(v):
    """A 0-d array as a Python number, any other array as itself."""
    return v.item() if v.ndim == 0 else v


# sqrt(P_A P_B) lies below this exactly where P_A P_B is not a normal double:
# sqrt(2^-1022) is 2^-511 and sqrt is correctly rounded.  There the product
# has lost bits or underflowed, and the excess is evaluated in scaled form.
_SCALED_BELOW = 2.0**-511


# A 0-d value flows through the private helpers as a numpy scalar, which
# np.asarray(x, dtype=float)[()] gives (an array it leaves as it is): numpy
# computes on a scalar without its array machinery, in a fraction of the
# time, and with the bits of a 0-d array (see _x).  Python floats
# would leave numpy's exp and complex loops, and raise where numpy warns.
def _where(condition, x, y):
    """np.where(condition, x, y), and for a scalar condition the chosen
    value itself, so that a 0-d value stays a numpy scalar."""
    if isinstance(condition, np.bool_):
        return x if condition else y
    return np.where(condition, x, y)


def _any(condition):
    """condition.any(), at a fraction of its cost on a numpy bool."""
    return bool(condition) if condition.ndim == 0 else condition.any()


# numpy's vector exp keeps to its fast loop for arguments from about -707.7
# up and falls back to a scalar one below, where its result nears or leaves
# the normal range (numpy 2.4 on AVX-512; :func:`_exp` is exact on any)
_EXP_FAST = -707.0
# exp rounds to zero below about -745.13, half the smallest subnormal
_EXP_ZERO = -746.0
# Points from which :func:`_exp` guards numpy's exp: the guard's dozen ufunc
# calls cost about 10 us, which the fallback's 15 to 175 ns a point repays
# on arrays of a few thousand points that underflow in part
_EXP_GUARDED = 2048


def _exp(x):
    """np.exp(x) for a number or a numpy array x, bit for bit and with the
    same floating-point warnings, at numpy's vector speed.

    numpy's vector exp falls back to a scalar loop, 10 to 100 times slower,
    wherever the result leaves the normal range, and every Gaussian factor
    of the closed forms underflows at large gaps or separations.  So where
    an array of ``_EXP_GUARDED`` points or more holds an argument below
    ``_EXP_FAST``, exp is taken of the arguments clipped there, the result
    is set to zero below it, and the few arguments between it and
    ``_EXP_ZERO``, where exp is subnormal or tiny, are evaluated again on
    their own.  numpy ignores underflow unless told otherwise;
    where it is told to warn or raise, np.exp itself is called, so that
    every underflow is flagged."""
    if (getattr(x, "size", 1) < _EXP_GUARDED or x.min() >= _EXP_FAST
            or np.geterr()["under"] != "ignore"):
        return np.exp(x)
    kept = x >= _EXP_FAST
    y = np.maximum(x, _EXP_FAST)
    np.exp(y, out=y)
    y *= kept  # a NaN argument keeps its NaN
    between = np.flatnonzero((x > _EXP_ZERO) & ~kept)
    y.flat[between] = np.exp(x.flat[between])
    return y


def _probability_bracket(x):
    """1 - sqrt(pi)|x| erfcx(|x|) at gaps x: the bracket that P
    (:func:`_probability`) and the scaled P~ (:func:`_scaled_probability`)
    share, and their one erfcx evaluation."""
    ax = np.abs(np.asarray(x, dtype=float)[()])
    return 1.0 - _SQRT_PI * ax * erfcx_real(ax)


def _probability(x, bracket, coupling):
    """P at gaps x, as :func:`transition_probability` gives it, from their
    bracket (:func:`_probability_bracket`)."""
    x = np.asarray(x, dtype=float)[()]
    ax = np.abs(x)
    core = _exp(-ax * ax) * bracket / (4.0 * np.pi)
    # erfc(-x) = 2 - erfc(x) adds a linear term for inverted gaps; adding
    # zero elsewhere turns the -0 of a bracket rounded below zero (at gaps
    # above about 4e307, where the exp is 0) into +0
    inverted = x < 0
    linear = _where(inverted, ax / (2.0 * _SQRT_PI), 0.0) if _any(inverted) else 0.0
    return coupling**2 * (core + linear)


def _scaled_probability(x, bracket, coupling):
    """P~ = P exp(x^2) = coupling^2 (1 - sqrt(pi) x erfcx(x))/4 pi at gaps
    x from their bracket (:func:`_probability_bracket`): of order 1/x^2
    where P underflows.  The bracket loses about 1e-12 relative at x = 100
    and 3e-8 at 1e4, so from x = 50 on P~ is the 7-term series sum_m
    (-1)^(m+1) (2m-1)!!/(2x^2)^m (DLMF 7.12.1), exact to rounding there,
    evaluated at those gaps only.  The scaled excess takes no inverted gap
    x < 0, and P~ is NaN there."""
    x = np.asarray(x, dtype=float)[()]
    large = x >= 50.0
    if _any(large):
        if large.ndim:
            bracket = bracket.copy()
            bracket[large] = _bracket_series(x[large])
        else:
            bracket = _bracket_series(x)
    if _any(x < 0):
        bracket = _where(x < 0, np.nan, bracket)
    return coupling**2 / (4.0 * np.pi) * bracket


def _bracket_series(x):
    """The bracket's 7-term series at gaps x >= 50 (:func:`_scaled_probability`)."""
    t = 0.5 / (x * x)
    return t * (1.0 - t * (3.0 - t * (15.0 - t * (105.0 - t * (945.0 - t * (
        10395.0 - t * 135135.0))))))


def _scaled_gm(a, d, coupling, brackets=(None, None)):
    """sqrt(P~_A P~_B) for the gaps a and b = a + d (:func:`_scaled_probability`):
    sqrt(P_A P_B) divided by E = exp(-(a^2 + b^2)/2), representable at any
    gaps the domain admits.  ``brackets`` holds the gaps' brackets
    (:func:`_probability_bracket`) that the caller has, None for the others."""
    a = np.asarray(a, dtype=float)[()]
    b = a + np.asarray(d, dtype=float)[()]
    scaled_a, scaled_b = (
        _scaled_probability(x, _probability_bracket(x) if bracket is None else bracket, coupling)
        for x, bracket in zip((a, b), brackets))
    return np.sqrt(scaled_a * scaled_b)


def _sqrt_product(p_a, p_b):
    """sqrt(P_A P_B) from the probabilities, as sqrt(P_A) sqrt(P_B) where
    the product is not a normal double and would have lost bits or
    underflowed.  Accepts arrays."""
    product = np.multiply(p_a, p_b)
    return _scalar(np.where(product < np.finfo(float).tiny, np.sqrt(p_a) * np.sqrt(p_b),
                            np.sqrt(product)))


def geometric_mean_probability(omega_a_sigma, delta_omega_sigma, coupling):
    """sqrt(P_A * P_B) for gaps a and a + d (:func:`_sqrt_product`, which
    does not underflow where the product does).  Accepts arrays."""
    pa = transition_probability(omega_a_sigma, coupling)
    pb = transition_probability(
        np.asarray(omega_a_sigma, dtype=float) + np.asarray(delta_omega_sigma, dtype=float),
        coupling,
    )
    return _sqrt_product(pa, pb)


def correlation_x_values(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """Pair-correlation amplitude for raw parameter arrays.

    This is the broadcasting core behind :func:`correlation_x`.  It accepts
    gap differences of either sign (the amplitude is even in the
    difference at fixed gap sum, which symmetry tests exercise) and only
    validates the separation.  The evaluation rewrites the nominal
    expression in terms of Faddeeva values in the upper half-plane,

        X = -i * pref * [ exp(-d^2/4) * (w((-l+id)/2) - w((l+id)/2))
                          + 2 * exp(-l^2/4) * exp(-i l d / 2) ],
        pref = coupling^2 / (8 sqrt(pi) l) * exp(-(2a+d)^2/4),

    so every intermediate is bounded by 2 and no separation or gap causes
    overflow.  Since (-l+id)/2 = -conj((l+id)/2) and w(-conj z) = conj w(z),
    the Faddeeva difference is -2i Im w((l+id)/2): one evaluation per point.
    """
    separation = _separation_half(delta_omega_sigma, l_over_sigma, coupling)
    a = np.asarray(omega_a_sigma, dtype=float)[()]
    return _scalar(_x(_x_gauss(a, separation[3]), separation))


def _x_bracket(d, l):
    """The bracket B of X (:func:`correlation_x_values`) from one Faddeeva
    evaluation per point, as the terms :func:`_x_abs_slope` differentiates:
    (Re B, Im B, w((l+id)/2), exp(-d^2/4), 2 exp(-l^2/4) Im e^{-ild/2})
    for arrays d and l."""
    w = faddeeva_w(0.5 * (l + 1j * d))
    phase = np.exp(-0.5j * l * d)
    gauss_l = 2.0 * _exp(-l * l / 4.0)
    gauss_d = _exp(-d * d / 4.0)
    swing = gauss_l * phase.imag
    return gauss_l * phase.real, gauss_d * (-2.0 * w.imag) + swing, w, gauss_d, swing


def _x_gauss(a, d):
    """X's Gaussian prefactor exp(-(2a + d)^2/4) at gaps a and a + d."""
    s = 2.0 * a + d
    return _exp(-(s * s) / 4.0)


def _x(gauss, separation):
    """X = -i pref B, pref = coupling^2 exp(-(2a + d)^2/4)/(8 sqrt(pi) l),
    from its Gaussian prefactor (:func:`_x_gauss`) and the separation half
    (:func:`_separation_half`): the one assembly of X."""
    # X is assembled from real parts around a real prefactor.  Real
    # arithmetic, and ufuncs called by name (np.exp, np.abs, np.hypot), give
    # the same bits on a numpy scalar, a 0-d array and an array element.
    # Not so ``**`` and the built-in abs of a complex on any scalar, Python's
    # or numpy's, nor complex products, which array loops form with fused
    # multiply-adds; complex division rounds differently on Python scalars
    # only.  _x_bracket's two complex expressions multiply by a real or an
    # imaginary factor, whose cross products are exact zeros.
    b_re, b_im, scale = separation[:3]
    pref = scale * gauss
    x_re = pref * b_im  # X = -i * pref * bracket
    x = np.empty(x_re.shape, dtype=complex)
    x.real, x.imag = x_re, -(pref * b_re)
    return x[()]


def _x_scale(l, coupling):
    """coupling^2/(8 sqrt(pi) l): the part of X's prefactor that depends on
    the separation alone (:func:`correlation_x_values`)."""
    return coupling**2 / (8.0 * _SQRT_PI * l)


def _over_scale(b_re, b_im, d, scale):
    """(|X|/E, X's prefactor over E) for E = exp(-(a^2 + b^2)/2), from the
    terms of X's bracket (:func:`_x_bracket`) and ``scale``, coupling^2/(8
    sqrt(pi) l) (:func:`_x_scale`).  Since (2a+d)^2/4 + d^2/4 = (a^2 +
    b^2)/2, the prefactor over E is coupling^2 exp(d^2/4)/(8 sqrt(pi) l),
    of order one where X underflows, and neither depends on a.  Inside the
    domain that :class:`DetectorPairConfig` admits both are finite at any
    separation above 1e-170 and unit coupling; at larger couplings and
    small separations they may overflow."""
    pref = scale * np.exp(d * d / 4.0)
    # the bracket's terms are at most 4, and one is above 1e-134 for d <= 35,
    # so the squares neither overflow nor lose it
    return pref * np.sqrt(b_re * b_re + b_im * b_im), pref


def _x_abs(d, l):
    """|X|/E at unit coupling, E = exp(-(a^2 + b^2)/2), from one Faddeeva
    evaluation per point (:func:`_over_scale`): what the separation searches
    compare with sqrt(P~_A P~_B), a function of d and l alone."""
    d = np.asarray(d, dtype=float)[()]
    l = np.asarray(l, dtype=float)[()]
    b_re, b_im = _x_bracket(d, l)[:2]
    return _over_scale(b_re, b_im, d, _x_scale(l, 1.0))[0]


def _x_abs_slope(d, l):
    """(|X|/E, d(|X|/E)/dl) at unit coupling from one Faddeeva evaluation
    per point, |X|/E with the bits of :func:`_x_abs`.  With z = (l+id)/2,
    dz/dl = 1/2 and w'(z) = 2i/sqrt(pi) - 2 z w(z) (DLMF 7.10.2), so

        d Im w / dl = 1/sqrt(pi) - (l Im w + d Re w)/2,

    and since the prefactor over E is proportional to 1/l,

        d(|X|/E)/dl = pref * ((Re B Re B' + Im B Im B') / |B| - |B| / l)

    for the bracket B, whose terms are all of order one.  Assembled from
    real parts, like X, so the bits do not depend on the shape of the
    call."""
    d = np.asarray(d, dtype=float)[()]
    l = np.asarray(l, dtype=float)[()]
    b_re, b_im, w, gauss_d, swing = _x_bracket(d, l)
    # swing = 2 exp(-l^2/4) Im e^{-ild/2} and Re B = 2 exp(-l^2/4) Re e^{-ild/2}
    # turn into each other under d/dl, up to the Gaussian's -l/2
    db_re = 0.5 * d * swing - 0.5 * l * b_re
    d_swing = -0.5 * d * b_re - 0.5 * l * swing
    dw_imag = 1.0 / _SQRT_PI - 0.5 * (l * w.imag + d * w.real)
    db_im = gauss_d * (-2.0 * dw_imag) + d_swing
    b_abs = np.hypot(b_re, b_im)
    x_abs, pref = _over_scale(b_re, b_im, d, _x_scale(l, 1.0))
    return x_abs, pref * ((b_re * db_re + b_im * db_im) / b_abs - b_abs / l)


# sup |x w(x)| over the real line (0.7488717463... at x = 1.3323371), rounded
# up.  z w(z) is bounded and analytic in the upper half-plane, so by
# Phragmen-Lindelof |w(z)| <= _ZW_BOUND / |z| there.
_ZW_BOUND = 0.7489

# sup |x^3 w(x) - i x^2/sqrt(pi)| over the real line (0.5141621528... at
# x = 1.6505627), rounded up: likewise |w(z) - i/(sqrt(pi) z)| <=
# _ZW3_BOUND / |z|^3 in the upper half-plane (:func:`_scaled_x_envelope`).
_ZW3_BOUND = 0.5142


def _scaled_x_envelope(d, l):
    """Upper bound on |X|/E at unit coupling, E = exp(-(a^2 + b^2)/2), from
    :func:`_x_abs`, non-increasing in l:

        1/(4 sqrt(pi) l) * (W + exp((d^2 - l^2)/4)),
        W = min(1, 2 M/rho, 2 l/(sqrt(pi) rho^2) + 8 M3/rho^3),

    rho = sqrt(l^2 + d^2), M = ``_ZW_BOUND`` and M3 = ``_ZW3_BOUND``.  The
    bracket of :func:`correlation_x_values` is at most 2 exp(-d^2/4)
    |Im w(z)| + 2 exp(-l^2/4) at z = (l+id)/2, |z| = rho/2, and W bounds
    |Im w(z)| three ways.  |w(z)| <= 1 in Im z >= 0.  There z w(z) and
    f(z) = z^3 w(z) - i z^2/sqrt(pi) are analytic and bounded, since w(z) =
    i/(sqrt(pi) z) + i/(2 sqrt(pi) z^3) + O(z^-5) as |z| grows in the closed
    upper half-plane (DLMF 7.12.1), f tending to i/(2 sqrt(pi)); so by
    Phragmen-Lindelof each is bounded by its supremum on the real line:
    |w(z)| <= M/|z| and |w(z) - i/(sqrt(pi) z)| <= M3/|z|^3.  The last
    gives |Im w(z)| <= Re(1/z)/sqrt(pi) + M3/|z|^3, Re(1/z) = 2l/rho^2.
    W rises in l below l = d, but W/l, the minimum of 1/l, 2M/(l rho) and
    2/(sqrt(pi) rho^2) + 8 M3/(l rho^3), does not, and neither does the
    envelope.  The M term is the least only for 0.75 < |z| < 1.67; at
    large separations the third-order one puts the envelope within about
    0.1 % of |X|/E.  Costs no Faddeeva evaluation.  Arrays d, l
    broadcast.

    Below l of about 1e-176 (at d = 35; about 1e-309 at small d) the bound
    overflows to +inf, and where l^2 + d^2 underflows to 0 (d = 0 and l
    below about 1.6e-162) 1/|z| is +inf and W is 1: each is a bound that
    holds and certifies nothing, so neither warns."""
    with np.errstate(over="ignore", divide="ignore"):
        ll, dd = l * l, d * d
        rho2 = ll + dd
        inv = 2.0 / np.sqrt(rho2)  # 1/|z|
        # 1/|z|^3 as a cube of 1/|z|, which underflows to 0 at large |z|;
        # capped at 1/|z| = 2, where the third-order bound already exceeds
        # 1, so that it does not overflow at small |z| either
        cube = np.minimum(inv, 2.0)
        cube = cube * cube * cube
        third = (2.0 / _SQRT_PI) * l / rho2 + _ZW3_BOUND * cube
        w_bound = np.minimum(np.minimum(1.0, _ZW_BOUND * inv), third)
        return (w_bound + _exp((dd - ll) / 4.0)) / (4.0 * _SQRT_PI) / l


def _scaled_x_floor(l):
    """Lower bound on |X(a, 0, l)|/E at unit coupling, E = exp(-a^2), for
    identical gaps, decreasing in l:

        1 / (2 pi (2 + l^2)).

    At d = 0 the bracket B of :func:`correlation_x_values` has |B| >= |Im B|
    = 2 Im w(l/2) = (4/sqrt(pi)) F(l/2), F being Dawson's integral (DLMF
    7.2(ii)), and F(x) > x/(1 + 2x^2) for x > 0: g = x/(1 + 2x^2) has g' -
    (1 - 2xg) = -4x^2/(1 + 2x^2)^2 < 0, so h = F - g, with F' = 1 - 2xF,
    has (h e^{x^2})' > 0 and h(0) = 0.  At large l the bound is about 1 -
    4/l^2 of |X|/E.  Costs no Faddeeva evaluation; every operation rounds
    monotonically, so the computed bound does not increase in l either."""
    return 1.0 / (2.0 * np.pi * (2.0 + l * l))


def correlation_x(cfg: DetectorPairConfig) -> complex:
    """Pair-correlation amplitude X for a scenario."""
    return correlation_x_values(
        cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma, cfg.coupling
    )


def _gap_half(omega_a_sigma, delta_omega_sigma, coupling, p_a=None, brackets=(None, None)):
    """The terms of the excess that depend on the gaps a and b = a + d
    alone, for arrays a and d: (P_A, P_B, sqrt(P_A P_B), X's Gaussian
    prefactor exp(-(2a + d)^2/4), sqrt(P~_A P~_B), (a^2 + b^2)/2).  The last
    two serve the scaled excess (:func:`_ingredients`) and are None where
    P_A P_B is a normal double at every point.  ``p_a`` is P_A where the
    caller has it, ``brackets`` the brackets of a and b
    (:func:`_probability_bracket`) that it has, None for the others."""
    a = np.asarray(omega_a_sigma, dtype=float)[()]
    d = np.asarray(delta_omega_sigma, dtype=float)[()]
    b = a + d
    bracket_a, bracket_b = brackets
    if p_a is None:
        if bracket_a is None:
            bracket_a = _probability_bracket(a)
        p_a = _probability(a, bracket_a, coupling)
    if bracket_b is None:
        bracket_b = _probability_bracket(b)
    p_b = _probability(b, bracket_b, coupling)
    gm = np.sqrt(p_a * p_b)
    gauss = _x_gauss(a, d)
    scaled_gm = half_square = None
    if _any(gm < _SCALED_BELOW):
        # inside the domain neither overflows: sqrt(P~_A P~_B) is at most
        # the largest sqrt(P_A P_B), at zero gaps, and a^2 + b^2 at most
        # (2a + d)^2, which X's prefactor has squared
        scaled_gm = _scaled_gm(a, d, coupling, (bracket_a, bracket_b))
        half_square = (a * a + b * b) / 2.0
    return p_a, p_b, gm, gauss, scaled_gm, half_square


def _separation_half(delta_omega_sigma, l_over_sigma, coupling, scaled=False, x_bracket=None):
    """The terms of the excess that depend on the gap difference d and the
    separation l alone, for arrays d and l: (Re B, Im B, coupling^2/(8
    sqrt(pi) l), d, |X|/E) for X's bracket B and E = exp(-(a^2 + b^2)/2)
    (:func:`_over_scale`).  |X|/E is evaluated here where ``scaled``, for a
    caller whose half serves many gaps, and is None elsewhere: the assembly
    (:func:`_ingredients`) then forms it from d where it needs it.
    ``x_bracket`` is (Re B, Im B) from :func:`_x_bracket` where the caller
    has it."""
    d = np.asarray(delta_omega_sigma, dtype=float)[()]
    l = np.asarray(l_over_sigma, dtype=float)[()]
    _check_separation(l)
    b_re, b_im = _x_bracket(d, l)[:2] if x_bracket is None else x_bracket
    scale = _x_scale(l, coupling)
    x_over_scale = None
    if scaled:
        # it may overflow at large couplings and small separations (and is
        # then not used)
        with np.errstate(over="ignore", invalid="ignore"):
            x_over_scale = _over_scale(b_re, b_im, d, scale)[0]
    return b_re, b_im, scale, d, x_over_scale


def _halves(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling, p_a=None,
            brackets=(None, None), x_bracket=None):
    """The gap half (:func:`_gap_half`, which takes ``p_a`` and
    ``brackets``) and the separation half (:func:`_separation_half`, which
    takes ``x_bracket``) of the excess at raw parameter arrays."""
    return (_gap_half(omega_a_sigma, delta_omega_sigma, coupling, p_a, brackets),
            _separation_half(delta_omega_sigma, l_over_sigma, coupling, x_bracket=x_bracket))


def _ingredients(gap, separation):
    """(P_A, P_B, X, |X| - sqrt(P_A P_B)) from the gap half
    (:func:`_gap_half`) and the separation half (:func:`_separation_half`)
    of the same points, broadcast against each other: every excess the
    package reports is assembled here, from one Faddeeva evaluation per
    point of the separation half.  Where P_A P_B is not a normal double
    (sqrt(P_A P_B) below ``_SCALED_BELOW``) the excess is E S, for the
    scaled excess S = |X|/E - sqrt(P~_A P~_B) (:func:`_scaled_gm`), formed
    as sign(S) exp(log|S| - (a^2 + b^2)/2): E alone underflows where |X| may
    still be normal, while this has the sign of S and underflows only where
    E S does (to +0: adding 0 turns -0 into +0, which the clamp of the
    concurrence would keep).  Where S is not finite, which takes a gap
    difference or a separation outside the admitted domain, the excess
    stays |X| - sqrt(P_A P_B)."""
    p_a, p_b, gm, gauss, scaled_gm, half_square = gap
    b_re, b_im, scale, d, x_over_scale = separation
    x = _x(gauss, separation)
    excess = np.abs(x) - gm
    if scaled_gm is not None:
        scaled = gm < _SCALED_BELOW
        # outside the domain, S may overflow (and is then not used)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if x_over_scale is None:
                x_over_scale = _over_scale(b_re, b_im, d, scale)[0]
            s = x_over_scale - scaled_gm
            magnitude = _exp(np.log(np.abs(s)) - half_square)
            excess = _where(scaled & np.isfinite(s), np.copysign(magnitude, s) + 0.0, excess)
    return _scalar(p_a), _scalar(p_b), _scalar(x), excess


def _clamp(excess):
    """Concurrence 2*max(0, excess) from the correlation excess."""
    return 2.0 * np.maximum(0.0, excess)


def correlation_excess(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """|X| - sqrt(P_A * P_B); the concurrence is twice its positive part.

    Unlike the clamped concurrence this changes sign smoothly through the
    harvesting boundary, which is what root bracketing needs.  Where P_A
    P_B is not a normal double it is E S for the scaled excess S (see
    :func:`_ingredients`): it keeps the sign of S, and rounds to zero only
    where the true excess is below the double range.
    """
    return _ingredients(*_halves(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling))[3]


def concurrence_values(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """Concurrence 2*max(0, |X| - sqrt(P_A P_B)) for raw parameter arrays,
    from :func:`correlation_excess`."""
    return _clamp(correlation_excess(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling))


def concurrence(cfg: DetectorPairConfig) -> HarvestReport:
    """Full closed-form report for a scenario."""
    p_a, p_b, x, excess = _ingredients(*_halves(
        cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma, cfg.coupling))
    return HarvestReport(p_a, p_b, x, float(_clamp(excess)))


def _finite(form):
    """A regime form or estimate ``form(cfg, *regime)``, computed with its
    floating-point errors ignored, where its value is finite; where it is
    not, ValueError names the value.  Such a form may leave the double
    range inside the admitted domain, e.g. its 1/l^2 terms times
    coupling^2 at the separation floor and the largest coupling."""

    @functools.wraps(form)
    def finite(cfg, *regime, **by_name):
        with np.errstate(all="ignore"):
            value = form(cfg, *regime, **by_name)
        if not np.isfinite(value):
            where = "".join(f" in the {r.value} regime" for r in (*regime, *by_name.values()))
            raise ValueError(f"{form.__name__}{where} is {np.asarray(value).item()!r} at {cfg}: "
                             "not a finite double")
        return value

    return finite


@_finite
def asymptotic_gm_probability(cfg: DetectorPairConfig, regime: GapRegime) -> float:
    """Approximate sqrt(P_A P_B) in the small- or large-gap regime.

    The caller owns regime validity; there is no sharp boundary between
    "much smaller" and "much larger" than the inverse switching duration,
    so no auto-detection is attempted.
    """
    a = cfg.omega_a_sigma
    b = cfg.omega_b_sigma
    lam2 = cfg.coupling**2
    gauss = np.exp(-(a * a + b * b) / 2.0)
    if regime is GapRegime.SMALL_GAPS:
        return lam2 / (4.0 * np.pi) * gauss
    if regime is GapRegime.LARGE_GAPS:
        return _large_gap(lambda a, b: lam2 / (8.0 * np.pi) * gauss / (a * b)
                          * (1.0 - 3.0 / (4.0 * a * a) - 3.0 / (4.0 * b * b)), a, b)
    raise TypeError(f"unknown gap regime {regime!r}")


def _large_gap(form, a, b):
    """``form(a, b)``, a large-gap form, on numpy doubles.  Both large-gap
    forms divide by a b, and the gm form also by a^2: where 2 a b is zero
    (a = 0 among them), ValueError says so.  The concurrence form's clamp
    keeps its 0 where 1/(2 a b) overflows to inf."""
    a, b = np.float64(a), np.float64(b)
    if not 2.0 * a * b:
        raise ValueError(f"the large-gap forms divide by omega_a_sigma*omega_b_sigma, and the gm "
                         f"form also by omega_a_sigma^2: at omega_a_sigma={float(a)!r}, "
                         f"omega_b_sigma={float(b)!r} 2 omega_a_sigma omega_b_sigma is zero")
    return form(a, b)


@_finite
def asymptotic_x(cfg: DetectorPairConfig, regime: SeparationRegime) -> complex:
    """Approximate X at small or large separation."""
    a, d, l = cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma
    lam2 = cfg.coupling**2
    if regime is SeparationRegime.SMALL_SEPARATION:
        pref = -lam2 * np.exp(-((2.0 * a + d) ** 2) / 4.0) / (4.0 * _SQRT_PI)
        bracket = (
            1j / l
            + np.exp(-d * d / 4.0) / _SQRT_PI
            + 0.5 * d * erf_real(0.5 * d)
        )
        return complex(pref * bracket)
    if regime is SeparationRegime.LARGE_SEPARATION:
        b = a + d
        return complex(
            -lam2
            / (4.0 * _SQRT_PI * l)
            * (
                2.0 / (l * _SQRT_PI) * np.exp(-(a * a + b * b) / 2.0)
                + 1j * np.exp(-((2.0 * a + d) ** 2 + l * l) / 4.0) * np.cos(0.5 * l * d)
            )
        )
    raise TypeError(f"unknown separation regime {regime!r}")


@_finite
def asymptotic_concurrence(cfg: DetectorPairConfig, regime: ConcurrenceRegime) -> float:
    """Approximate concurrence at small separation, and at large separation
    with large gaps, where it carries the same max(0, .) clamp as the exact
    expression."""
    a, d, l = cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma
    b = a + d
    lam2 = cfg.coupling**2
    if regime is ConcurrenceRegime.SMALL_SEPARATION:
        return lam2 / (2.0 * l * _SQRT_PI) * np.exp(-((2.0 * a + d) ** 2) / 4.0)
    if regime is ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS:
        gauss = np.exp(-(a * a + b * b) / 2.0)
        return _large_gap(lambda a, b: max(
            0.0, lam2 / (2.0 * np.pi) * gauss * (2.0 / (l * l) - 1.0 / (2.0 * a * b))), a, b)
    raise TypeError(f"unknown concurrence regime {regime!r}")


def lmax_large_gap_estimate(omega_a_sigma, delta_omega_sigma) -> float:
    """Large-gap estimate of the maximum harvesting-achievable separation,
    2 * sqrt(a * (a + d)) in units of the switching length.  Intended for
    gaps well above the inverse duration; no hard check is made."""
    a = np.asarray(omega_a_sigma, dtype=float)
    d = np.asarray(delta_omega_sigma, dtype=float)
    return _scalar(2.0 * np.sqrt(a * (a + d)))


@_finite
def concurrence_gap_derivative_estimate(cfg: DetectorPairConfig) -> float:
    """Rough derivative of the concurrence with respect to the gap
    difference (in units of 1/sigma), valid where harvesting occurs:

        (coupling^2 / pi) * exp(-(a^2 + b^2)/2)
            * [ (sqrt(pi)/4) * erfcx(b) - b / l^2 ].

    Positive at large separation (non-identical detectors win), negative at
    small separation.  Heuristic only: its zero tracks, but does not equal,
    the true optimal gap difference.
    """
    a, d, l = cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma
    b = a + d
    return (
        cfg.coupling**2
        / np.pi
        * np.exp(-(a * a + b * b) / 2.0)
        * (_SQRT_PI / 4.0 * erfcx_real(b) - b / (l * l))
    )
