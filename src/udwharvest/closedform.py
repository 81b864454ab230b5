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
switching times.

Asymptotic approximations (small/large gaps, small/large separations) and
two back-of-envelope estimates (the maximum harvesting-achievable
separation at large gaps, and the derivative of the concurrence with
respect to the gap difference) are provided for cross-checking the exact
expressions and for seeding searches.
"""

from __future__ import annotations

import enum
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import erf_real, erfcx_real, faddeeva_w

__all__ = [
    "MAX_DELTA_OMEGA_SIGMA",
    "COUPLING_WARN_THRESHOLD",
    "Method",
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


class Method(enum.Enum):
    """Which pipeline produced a report."""

    CLOSED_FORM = "closed-form"
    ORACLE_SINGLE_INTEGRAL = "oracle-single-integral"


class GapRegime(enum.Enum):
    SMALL_GAPS = "small-gaps"
    LARGE_GAPS = "large-gaps"


class SeparationRegime(enum.Enum):
    SMALL_SEPARATION = "small-separation"
    LARGE_SEPARATION = "large-separation"


class ConcurrenceRegime(enum.Enum):
    SMALL_SEPARATION = "small-separation"
    LARGE_SEPARATION_SMALL_GAPS = "large-separation-small-gaps"
    LARGE_SEPARATION_LARGE_GAPS = "large-separation-large-gaps"


def _domain_errors(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """Per scenario, the message of the first domain rule it breaks, or "":
    the one statement of the domain :class:`DetectorPairConfig` admits.
    Accepts arrays; returns a 1-D object array over the broadcast points."""
    names = ("omega_a_sigma", "delta_omega_sigma", "l_over_sigma", "coupling")
    values = [np.ravel(v) for v in np.broadcast_arrays(
        omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling)]
    a, d, l, lam = values
    # (violated, message, the value it formats), in checking order
    rules = [(~np.isfinite(v), f"{name} must be finite, got {{!r}}", v)
             for name, v in zip(names, values)]
    rules += [
        (a < 0, "omega_a_sigma must be >= 0 (A has the smaller gap)", a),
        (d < 0, "delta_omega_sigma must be >= 0 (A has the smaller gap)", d),
        (d > MAX_DELTA_OMEGA_SIGMA, f"delta_omega_sigma={{}} exceeds {MAX_DELTA_OMEGA_SIGMA}; "
         "scaled intermediates would overflow double precision", d),
        (l <= 0, "l_over_sigma must be > 0 (zero separation diverges)", l),
        (lam <= 0, "coupling must be > 0", lam),
    ]
    errors = np.full(a.size, "", dtype=object)
    for violated, message, v in reversed(rules):  # an earlier rule overwrites a later one
        for i in np.flatnonzero(violated):
            errors[i] = message.format(v[i].item())
    return errors


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
    correlation amplitude diverges at zero separation); the coupling must
    be positive and should be small.
    """

    omega_a_sigma: float
    delta_omega_sigma: float
    l_over_sigma: float
    coupling: float = 0.1

    def __post_init__(self):
        error = _domain_errors(
            self.omega_a_sigma, self.delta_omega_sigma, self.l_over_sigma, self.coupling
        )[0]
        if error:
            raise ValueError(error)
        if self.coupling > COUPLING_WARN_THRESHOLD:
            warnings.warn(
                f"coupling={self.coupling} is outside the weak-coupling regime "
                f"(> {COUPLING_WARN_THRESHOLD}); second-order results are unreliable",
                stacklevel=_caller_stacklevel(),
            )

    @classmethod
    def with_omega_b(cls, omega_a_sigma, omega_b_sigma, l_over_sigma, coupling=0.1):
        """Build from both gaps; requires omega_b_sigma >= omega_a_sigma."""
        if omega_b_sigma < omega_a_sigma:
            raise ValueError(
                "omega_b_sigma must be >= omega_a_sigma (A carries the smaller gap)"
            )
        return cls(omega_a_sigma, omega_b_sigma - omega_a_sigma, l_over_sigma, coupling)

    @property
    def omega_b_sigma(self) -> float:
        return self.omega_a_sigma + self.delta_omega_sigma


@dataclass(frozen=True)
class HarvestReport:
    """Transition probabilities, correlation amplitude, and concurrence for
    one scenario, tagged with the pipeline that produced it.  The exchange
    correlation ``c_corr`` is filled only by the oracle pipeline (there is
    no closed form for it)."""

    p_a: float
    p_b: float
    x: complex
    concurrence: float
    method: Method
    c_corr: complex | None = None

    @property
    def x_abs(self) -> float:
        return float(np.abs(self.x))

    @property
    def geometric_mean(self) -> float:
        return float(np.sqrt(self.p_a * self.p_b))


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
    x = np.asarray(omega_sigma, dtype=float)
    ax = np.abs(x)
    core = np.exp(-ax * ax) * (1.0 - _SQRT_PI * ax * erfcx_real(ax))
    # erfc(-x) = 2 - erfc(x) adds a linear term for inverted gaps
    p = coupling**2 * (core / (4.0 * np.pi) + np.where(x < 0, ax / (2.0 * _SQRT_PI), 0.0))
    if p.ndim == 0:
        return float(p)
    return p


def geometric_mean_probability(omega_a_sigma, delta_omega_sigma, coupling):
    """sqrt(P_A * P_B) for gaps a and a + d.  Accepts arrays."""
    pa = transition_probability(omega_a_sigma, coupling)
    pb = transition_probability(
        np.asarray(omega_a_sigma, dtype=float) + np.asarray(delta_omega_sigma, dtype=float),
        coupling,
    )
    return np.sqrt(pa * pb)


def _x_prefactor(a, d, l, coupling):
    """The real prefactor coupling^2/(8 sqrt(pi) l) * exp(-(2a+d)^2/4) of X;
    :func:`_x_envelope` multiplies the same bits."""
    s = 2.0 * a + d
    return coupling**2 / (8.0 * _SQRT_PI * l) * np.exp(-(s * s) / 4.0)


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
    a = np.asarray(omega_a_sigma, dtype=float)
    d = np.asarray(delta_omega_sigma, dtype=float)
    l = np.asarray(l_over_sigma, dtype=float)
    if np.any(l <= 0):
        raise ValueError("l_over_sigma must be > 0 (zero separation diverges)")
    # X is assembled from real parts around a real prefactor: numpy rounds
    # complex division, scalar ``** 2`` and (through fused multiply-adds)
    # the signs of zero products differently for scalars and arrays, while
    # real operations give the same bits at any shape.
    pref = _x_prefactor(a, d, l, coupling)
    w_imag = faddeeva_w(0.5 * (l + 1j * d)).imag
    phase = np.exp(-0.5j * l * d)
    gauss_l = 2.0 * np.exp(-l * l / 4.0)
    bracket_re = gauss_l * phase.real
    bracket_im = np.exp(-d * d / 4.0) * (-2.0 * w_imag) + gauss_l * phase.imag
    x_re = pref * bracket_im  # X = -i * pref * bracket
    x = np.empty(x_re.shape, dtype=complex)
    x.real, x.imag = x_re, -(pref * bracket_re)
    if x.ndim == 0:
        return complex(x)
    return x


# sup |x w(x)| over the real line (0.7488717463... at x = 1.3323371), rounded
# up.  z w(z) is bounded and analytic in the upper half-plane, so by
# Phragmen-Lindelof |w(z)| <= _ZW_BOUND / |z| there.
_ZW_BOUND = 0.7489


def _x_envelope(a, d, l, coupling):
    """Upper bound on |X| from :func:`correlation_x_values`' bracket,
    decreasing in l:

        pref * (2 exp(-d^2/4) min(1, 2 M / sqrt(l^2 + d^2)) + 2 exp(-l^2/4)),

    since |Im w(z)| <= |w(z)| <= min(1, M/|z|) at z = (l+id)/2.  Costs no
    Faddeeva evaluation.  Arrays a, d, l broadcast."""
    w_bound = np.minimum(1.0, 2.0 * _ZW_BOUND / np.sqrt(l * l + d * d))
    bracket = 2.0 * np.exp(-d * d / 4.0) * w_bound + 2.0 * np.exp(-l * l / 4.0)
    return _x_prefactor(a, d, l, coupling) * bracket


def correlation_x(cfg: DetectorPairConfig) -> complex:
    """Pair-correlation amplitude X for a scenario."""
    return correlation_x_values(
        cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma, cfg.coupling
    )


def _ingredients(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """(P_A, P_B, X, |X| - sqrt(P_A P_B)) for raw parameter arrays."""
    a = np.asarray(omega_a_sigma, dtype=float)
    d = np.asarray(delta_omega_sigma, dtype=float)
    p_a = transition_probability(a, coupling)
    p_b = transition_probability(a + d, coupling)
    x = correlation_x_values(a, d, l_over_sigma, coupling)
    return p_a, p_b, x, np.abs(x) - np.sqrt(p_a * p_b)


def _clamp(excess):
    """Concurrence 2*max(0, excess) from the correlation excess."""
    return 2.0 * np.maximum(0.0, excess)


def correlation_excess(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """|X| - sqrt(P_A * P_B); the concurrence is twice its positive part.

    Unlike the clamped concurrence this changes sign smoothly through the
    harvesting boundary, which is what root bracketing needs.
    """
    return _ingredients(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling)[3]


def concurrence_values(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling):
    """Concurrence 2*max(0, |X| - sqrt(P_A P_B)) for raw parameter arrays."""
    return _clamp(correlation_excess(omega_a_sigma, delta_omega_sigma, l_over_sigma, coupling))


def concurrence(cfg: DetectorPairConfig) -> HarvestReport:
    """Full closed-form report for a scenario."""
    p_a, p_b, x, excess = _ingredients(
        cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma, cfg.coupling
    )
    return HarvestReport(p_a, p_b, x, float(_clamp(excess)), Method.CLOSED_FORM)


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
        return (
            lam2
            / (8.0 * np.pi)
            * gauss
            / (a * b)
            * (1.0 - 3.0 / (4.0 * a * a) - 3.0 / (4.0 * b * b))
        )
    raise TypeError(f"unknown gap regime {regime!r}")


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


def asymptotic_concurrence(cfg: DetectorPairConfig, regime: ConcurrenceRegime) -> float:
    """Approximate concurrence in the three tractable corners of parameter
    space.  The large-separation branches carry the same max(0, .) clamp as
    the exact expression; the small-gap branch is clamped to zero as soon
    as the separation exceeds sqrt(2) switching lengths."""
    a, d, l = cfg.omega_a_sigma, cfg.delta_omega_sigma, cfg.l_over_sigma
    b = a + d
    lam2 = cfg.coupling**2
    if regime is ConcurrenceRegime.SMALL_SEPARATION:
        return lam2 / (2.0 * l * _SQRT_PI) * np.exp(-((2.0 * a + d) ** 2) / 4.0)
    gauss = np.exp(-(a * a + b * b) / 2.0)
    if regime is ConcurrenceRegime.LARGE_SEPARATION_SMALL_GAPS:
        return max(0.0, lam2 / (2.0 * np.pi) * gauss * (2.0 / (l * l) - 1.0))
    if regime is ConcurrenceRegime.LARGE_SEPARATION_LARGE_GAPS:
        return max(
            0.0, lam2 / (2.0 * np.pi) * gauss * (2.0 / (l * l) - 1.0 / (2.0 * a * b))
        )
    raise TypeError(f"unknown concurrence regime {regime!r}")


def lmax_large_gap_estimate(omega_a_sigma, delta_omega_sigma) -> float:
    """Large-gap estimate of the maximum harvesting-achievable separation,
    2 * sqrt(a * (a + d)) in units of the switching length.  Intended for
    gaps well above the inverse duration; no hard check is made."""
    a = np.asarray(omega_a_sigma, dtype=float)
    d = np.asarray(delta_omega_sigma, dtype=float)
    out = 2.0 * np.sqrt(a * (a + d))
    if out.ndim == 0:
        return float(out)
    return out


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
