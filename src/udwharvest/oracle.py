"""Quadrature oracles that recompute the probabilities and correlations
from the regulated vacuum two-point function, independently of the closed
forms.  The concurrence they imply is compared with the closed form by
``udwharvest verify`` (:func:`udwharvest.cli.run_verification`), and
:func:`assemble_rho` builds the joint detector state from the closed forms
plus the exchange correlation, whose only route is quadrature.

Two kinds of evaluation live here:

* direct double integrals over detector proper times, with the two-point
  function regulated by a small imaginary time shift ``eps`` and the limit
  eps -> 0 taken by polynomial (Richardson) extrapolation over a
  decreasing schedule;

* a single-integral route that first reduces the pair correlation to a
  principal-value integral plus a residue term, and evaluates the
  principal value by analytic pole subtraction so that plain panel
  quadrature regains spectral accuracy.

The double-integral routes share no algebra with the single-integral
reduction; their mutual agreement is what certifies the closed forms.  The
three double integrals (probability, correlation, exchange correlation)
run through one regulated quadrature loop and differ only in kernel,
poles, outer phase and tolerance; the two single-integral routes
share one panel-order-doubling self-check.

Quadrature layout: each axis is covered by Gauss-Legendre panels.  Panels
are geometrically refined toward the lightcone poles (which sit a distance
eps off the integration line) down to width ~eps, which keeps the per-panel
Bernstein parameter of the nearest pole of order one and the error
spectral.  The inner time is offset from the outer node by o in
[0, ``_HALFWIDTH + 2``] to either side; relative to the nominal square
this clips and pads only regions whose Gaussian window is below
exp(-(_HALFWIDTH+2)^2/4) ~ 1e-21, far under every tolerance.  The
offset parameterization makes the integrand a product of a bounded real
cross-Gaussian matrix and per-axis complex vectors, so each pass is one
large real exponential plus a real matrix product.  The outer axis only
carries a unit Gaussian times the outer phase, so its order is not the
inner one but a fixed 16 nodes per panel, certified per pole: the rule must
reproduce each matrix column's known time integral.  That integral carries
exp(-f^2/4) at outer frequency f, so a frequency 16 nodes cannot resolve
belongs to a value that has already cancelled to round-off; such a call
raises :exc:`NonConvergence` instead of trying more nodes.

The matrix depends on the pole and the settings, not on the regulator,
the gaps, the outer phase or the prefactor: its offsets are graded for the
smallest regulator, whose panels are fine enough for the wider ones.  The
outer nodes are mirror symmetric, so the earlier inner time t - o is the
same matrix with its rows reversed.  Where the offset spans the whole line
(probability, exchange correlation), o -> -o conjugates the kernel, so that
half is summed against the conjugate kernel.  The outer phase depends on
neither the regulator nor the kernel, so the outer time sum is taken
first: one product of the matrix with the phase weights of an outer
frequency, forward and reversed, gives both halves' outer sums, and per
regulator there remains one sum over the offsets per problem.  Every
route therefore takes broadcast arrays: a double integral builds one matrix
per pole, graded for the smallest regulator, multiplies it once per
distinct outer frequency and applies it to every regulator and every
problem with that pole.  The principal-value routes' panels depend on the
separation alone, so they make one panel sum per separation and order, on
a window no wider than [-_HALFWIDTH, _HALFWIDTH] at any separation.  A
call on scalars is a one-row batch and returns a Python number.  No matrix
outlives the call that builds it.

Trust: a double-integral value is a sum of terms of fixed size, while
the value falls exponentially with the gaps (P like exp(-gap^2), X like
exp(-(gap_A + gap_B)^2 / 4)); past some gap the sum cancels to round-off.
Each route bounds that error and raises :exc:`NonConvergence` above its
tolerance: at the default settings the probability route is trusted up to
gaps of about 3.8 and the correlation route up to a gap sum of about 9
(less at large separations).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import (
    DetectorPairConfig,
    _check_separation,
    _scalar,
    correlation_x,
    transition_probability,
)

__all__ = [
    "NonConvergence",
    "OracleSettings",
    "DEFAULT_SETTINGS",
    "extrapolate_to_zero",
    "pd_double_integral",
    "pv_gaussian_pole_integral",
    "x_single_integral_pv",
    "x_double_integral",
    "c_quadrature",
    "c_double_integral",
    "DensityMatrix4",
    "assemble_rho",
]

_SQRT_PI = np.sqrt(np.pi)

# Smallest regulator the settings admit.  The panels beside the pole are as
# wide as the regulator; far below this they run out of distinct doubles
# and the quadrature returns wrong values unnoticed (2.5 % off in X at 1e-15).
_MIN_REGULATOR = 1e-8

# Largest inner panel order the settings admit: the principal-value routes
# self-check at twice the order, and their Legendre companion matrix grows
# as the square of it.
_MAX_QUADRATURE_NODES = 1024


class NonConvergence(RuntimeError):
    """A quadrature or regulator-limit self-check failed."""


@dataclass(frozen=True)
class OracleSettings:
    """Knobs for the integral oracles.

    epsilon_schedule   regulator values (units of the switching duration),
                       finite, strictly decreasing and at least 1e-8; the
                       regulator limit takes the polynomial through all
                       samples to zero, so its order is one less than the
                       schedule's length
    quadrature_nodes   Gauss-Legendre nodes per panel, 4 to 1024, of the
                       inner (offset) axis of the double integrals and of
                       the principal-value routes, which also run at twice
                       this to self-check; the outer time axis of the
                       double integrals has a fixed, certified 16 nodes
                       per panel
    """

    epsilon_schedule: tuple[float, ...] = (0.05, 0.025, 0.0125)
    quadrature_nodes: int = 64

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_schedule)
        object.__setattr__(self, "epsilon_schedule", eps)
        if len(eps) < 2:
            raise ValueError("epsilon_schedule needs at least two values")
        if not np.all(np.isfinite(eps)):
            raise ValueError("epsilon_schedule values must be finite")
        if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_schedule must be strictly decreasing and positive")
        if eps[-1] < _MIN_REGULATOR:
            raise ValueError(f"epsilon_schedule values must be >= {_MIN_REGULATOR:g}: panels "
                             "as narrow as the regulator run out of distinct doubles")
        if self.quadrature_nodes < 4:
            raise ValueError("quadrature_nodes must be >= 4")
        if self.quadrature_nodes > _MAX_QUADRATURE_NODES:
            raise ValueError(f"quadrature_nodes must be <= {_MAX_QUADRATURE_NODES}: the "
                             "self-check at twice the order grows as its square")


DEFAULT_SETTINGS = OracleSettings()

# Integration cutoff in time (units of the switching duration); the
# Gaussian window makes the discarded tail < exp(-_HALFWIDTH^2/2) relative.
_HALFWIDTH = 12.0

# Panels wider than this resolve nothing even for the smooth Gaussian
# envelope; the graded ladders below stop once they reach it.
_MAX_PANEL_WIDTH = 1.5


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panelize(edges: np.ndarray, order: int):
    """Nodes and weights of per-panel Gauss-Legendre on consecutive edges."""
    xg, wg = _gauss_legendre(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def _fill_edges(anchors, max_width):
    """Subdivide gaps between sorted anchor edges down to max_width."""
    e = np.array(sorted(set(float(a) for a in anchors)))
    out = [e[0]]
    for a, b in zip(e[:-1], e[1:]):
        n = int(np.ceil((b - a) / max_width))
        if n > 1:
            out.extend(np.linspace(a, b, n + 1)[1:])
        else:
            out.append(b)
    return np.asarray(out)


def _graded_edges(pole, eps):
    """Offset panel edges on [0, _HALFWIDTH + 2]: geometric refinement to
    width ~eps around the pole, uniform fill at most _MAX_PANEL_WIDTH elsewhere."""
    # offsets beyond this only enter through exp(-o^2/4) tails < 1e-21
    span = _HALFWIDTH + 2.0
    edges = {0.0, span}
    if 0.0 < pole < span:
        edges.add(float(pole))
    w = eps
    x = w
    while x < 2.0 * _MAX_PANEL_WIDTH:
        for s in (pole - x, pole + x):
            if 0.0 < s < span:
                edges.add(float(s))
        w *= 2.0
        x += w
    return _fill_edges(edges, _MAX_PANEL_WIDTH)


def extrapolate_to_zero(eps_values, samples):
    """Diagonal of the Neville tableau at zero regulator.

    Entry k is the value of the degree-k polynomial through the first
    k + 1 (eps, sample) pairs, evaluated at eps = 0; the last entry is the
    full-order extrapolant.
    """
    eps = [float(e) for e in eps_values]
    tab = [complex(s) for s in samples]
    n = len(tab)
    if len(eps) != n:
        raise ValueError("schedule and samples must have equal length")
    diag = [tab[0]]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = (eps[i] * tab[i + 1] - eps[i + m] * tab[i]) / (eps[i] - eps[i + m])
        diag.append(tab[0])
    return diag


def _neville_weights(eps_values):
    """Absolute weights of the full-order extrapolant on the samples: the
    tableau is linear, so they are the unit samples' extrapolants."""
    return np.abs([extrapolate_to_zero(eps_values, unit)[-1].real
                   for unit in np.eye(len(eps_values))])


def _regulator_limit(settings: OracleSettings, samples, sample_error, rel_tol, weights):
    """Extrapolate regulated samples to zero and self-check convergence.

    Returns (value, extrapolant sequence).  The value is the last
    extrapolant, the polynomial through every sample.

    Two checks, each relative to ``rel_tol``.  First the quadrature error:
    ``sample_error`` bounds each sample's error (round-off and outer rule,
    see :func:`_regulated_double_integral`), and the Neville tableau, linear
    in the samples, carries those bounds into the value with the absolute
    weights of its extrapolant (``weights``, from :func:`_neville_weights`);
    where the sum cancels this exceeds the value itself.  Then the
    regulator limit: the last order's correction scaled by the smallest
    regulator -- the contraction one further order would bring -- must not
    exceed rel_tol times the result's magnitude, however small the result
    is.  A value that is not finite fails before them and one that is
    exactly zero (every sample underflowed) after them, so neither is
    certified.
    """
    eps = settings.epsilon_schedule
    diag = extrapolate_to_zero(eps, samples)
    best, prev = diag[-1], diag[-2]
    if not np.isfinite(best):
        raise NonConvergence(f"regulator limit {best} is not finite")
    quad_err = float(weights @ sample_error)
    if not quad_err <= rel_tol * abs(best):
        raise NonConvergence(
            f"quadrature error estimate {quad_err:.3e} exceeds {rel_tol:.1e} of the "
            f"result ({abs(best):.3e}): the quadrature sum cancels"
        )
    err_est = abs(best - prev) * eps[-1]
    if not err_est <= rel_tol * abs(best):
        raise NonConvergence(
            f"regulator extrapolation error estimate {err_est:.3e} exceeds "
            f"{rel_tol:.1e} of the result ({abs(best):.3e})"
        )
    if best == 0:
        raise NonConvergence("regulator limit is exactly zero: the regulated samples underflowed")
    return best, tuple(diag)


# Outer Gauss-Legendre nodes per panel.  A column's time integral at outer
# frequency f carries exp(-f^2/4), so a frequency this order cannot resolve
# belongs to a value that has already cancelled to round-off.
_OUTER_ORDER = 16
# The outer rule must reproduce the time integral of every matrix column,
# weighted by the kernel's modulus, to this fraction of the absolute sum.
_OUTER_CERTIFICATE = 1e-13


def _outer_rule(halfwidth, order):
    """Outer-time nodes and weights on [-halfwidth, halfwidth], made
    exactly mirror-symmetric (t == -t[::-1] bitwise) so that reversing the
    rows of a cross-Gaussian matrix flips the sign of its offset."""
    n_panels = int(np.ceil(2.0 * halfwidth / _MAX_PANEL_WIDTH))
    t, w = _panelize(np.linspace(-halfwidth, halfwidth, n_panels + 1), order)
    return 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])


def _regulated_double_integral(
    settings, pole, outer_freq, later_k, prefactor, rel_tol, time_ordered=False
):
    """Regulator limits of the double integral behind the three direct
    routes, one row per problem,

        prefactor * int dt exp(-i outer_freq t) int_0^inf do exp(-o^2/4)
            [exp(-(t + o/2)^2) g(later_k, o) + exp(-(t - o/2)^2) h(o)],
        g(k, o) = exp(i k o) / ((o + i eps)^2 - pole^2),

    with the inner time t +- o and panels graded toward the lightcone pole
    at o = pole.  The earlier half's kernel h is conj(exp(i later_k o)) over
    the denominator where ``time_ordered`` (g(-later_k, o), the time-ordered
    correlation's second triangle), or else over its conjugate
    (conj(g(later_k, o)), the o -> -o image of a whole-line integral).

    ``pole``, ``outer_freq``, ``prefactor`` and ``later_k`` are 1-D arrays
    over the rows.  Rows with the same pole share the nodes
    and hence the one cross-Gaussian matrix of that pole, graded for the
    smallest regulator: the wider regulators' integrands are smoother, so
    its finer panels serve them too.  The matrix, the window, the outer
    rule's probe products and each row's kernel phases depend on the
    offsets alone and are built once per pole.  The outer time is summed
    first: per distinct outer frequency of the pole's rows, one product of
    the phase weights' real and imaginary parts, forward for the later half
    and reversed for the earlier one (whose matrix is this one with its
    rows reversed), with the matrix.  Rows with the same outer frequency
    share it.  Per regulator there remain the denominator, the certificate
    and, per row, one sum over the offsets of those outer sums times the
    row's kernels.

    The outer rule, ``_OUTER_ORDER`` nodes per panel, is certified per pole
    group and regulator: it must reproduce the closed-form time integral of
    every matrix column at the group's largest |outer_freq|, weighted by
    the kernel's modulus, to ``_OUTER_CERTIFICATE`` of the absolute sum
    (weights times matrix times kernel modulus).  The closed form only
    checks the rule; the value is the quadrature sum.  Where the rule fails,
    :exc:`NonConvergence` is raised at once, before any row's limit is
    checked.

    Then, row by row, :func:`_regulator_limit` takes the limit and checks
    it, with each half's sample error bounded by machine epsilon times the
    absolute sum plus the outer rule's error.  The first failing row
    raises :exc:`NonConvergence` with the message of its one-row call.
    Returns complex arrays (values, extrapolants) of shapes (rows,) and
    (rows, len(epsilon_schedule)).
    """
    schedule = settings.epsilon_schedule
    t, w = _outer_rule(_HALFWIDTH, _OUTER_ORDER)
    samples = np.empty((pole.size, len(schedule)), dtype=complex)
    sample_error = np.empty((pole.size, len(schedule)))
    poles = np.unique(pole)
    nodes = [_panelize(_graded_edges(p, schedule[-1]), settings.quadrature_nodes) for p in poles]
    # one buffer holds each pole's matrix in turn
    buffer = np.empty(t.size * max((o.size for o, _ in nodes), default=0))
    for p, (o, w_in) in zip(poles, nodes):
        rows = np.flatnonzero(pole == p)
        # probe rows: the outer rule's phase weights at the group's largest
        # frequency (real and imaginary parts) and the plain weights, which
        # give the absolute sum
        f = np.abs(outer_freq[rows]).max()
        probe = np.stack([w * np.cos(f * t), w * np.sin(f * t), w])
        window = w_in * np.exp(-o * o / 4.0)
        # exp(-(t^2 + (t + o)^2)/2) = exp(-(t + o/2)^2) * exp(-o^2/4)
        m = np.add.outer(t, 0.5 * o, out=buffer[: t.size * o.size].reshape(t.size, o.size))
        np.square(m, out=m)
        np.negative(m, out=m)
        np.exp(m, out=m)
        cos_col, sin_col, abs_col = probe @ m
        # each column's time integral at frequency f is known in closed form
        col_err = np.abs(cos_col - 1j * sin_col - _SQRT_PI * np.exp(-f * f / 4.0 + 0.5j * f * o))
        phase = window * np.exp(1j * later_k[rows, None] * o)
        earlier_phase = phase.conj()
        # The outer time sums: the phase weights of each distinct outer
        # frequency times the matrix, and the reversed weights times it for
        # the earlier half.  The weights' real and imaginary parts are the
        # rows of one real product per frequency, of the same shape in every
        # batch: BLAS may sum a wider product in another order, and a row's
        # bits must not depend on the other rows of its batch.
        freqs, row_freq = np.unique(outer_freq[rows], return_inverse=True)
        sums = np.empty((freqs.size, 2, o.size), dtype=complex)
        for i, freq in enumerate(freqs):
            w_phase = w * np.exp(-1j * freq * t)
            parts = np.stack([w_phase.real, w_phase.imag,
                              w_phase.real[::-1], w_phase.imag[::-1]]) @ m
            sums[i].real, sums[i].imag = parts[::2], parts[1::2]
        # strided views, so that numpy multiplies row by row: a row's bits do
        # not depend on where it starts in one long loop over the batch
        later, earlier = sums[row_freq].transpose(1, 0, 2)
        for j, eps in enumerate(schedule):
            denom = (o + 1j * eps) ** 2 - p * p
            kernel_abs = window / np.abs(denom)
            outer_err = col_err @ kernel_abs
            absolute = abs_col @ kernel_abs
            if outer_err > _OUTER_CERTIFICATE * absolute:
                raise NonConvergence(
                    f"outer quadrature not certified at {_OUTER_ORDER} nodes per panel "
                    f"for outer frequency {f:.3e}"
                )
            h = earlier_phase / (denom if time_ordered else denom.conj())
            total = np.sum(later * (phase / denom) + earlier * h, axis=1)
            samples[rows, j] = prefactor[rows] * total
            per_half = np.finfo(float).eps * absolute + outer_err
            sample_error[rows, j] = 2.0 * np.abs(prefactor[rows]) * per_half
    weights = _neville_weights(schedule)
    values = np.empty(pole.size, dtype=complex)
    extrapolants = np.empty((pole.size, len(schedule)), dtype=complex)
    for i in range(pole.size):
        values[i], extrapolants[i] = _regulator_limit(
            settings, samples[i], sample_error[i], rel_tol, weights
        )
    return values, extrapolants


def _problems(*args):
    """Broadcast shape of an oracle batch and its arguments as flat float
    arrays; a non-finite argument fails the whole batch."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("oracle arguments must be finite")
    return arrays[0].shape, [a.ravel() for a in arrays]


def _shaped(values, extrapolants, shape, return_extrapolants):
    """``values`` in the broadcast shape, a Python number for a 0-d call,
    and with ``return_extrapolants`` the extrapolants of shape
    ``shape + (len(epsilon_schedule),)``."""
    values = _scalar(values.reshape(shape))
    if return_extrapolants:
        return values, extrapolants.reshape(shape + extrapolants.shape[1:])
    return values


def _order_doubled(kappa, l, value, order, what):
    """``value(pv)`` of every row's principal value pv, the
    :func:`pv_gaussian_pole_integral` at the row's ``kappa`` and separation
    ``l``, taken at twice the panel ``order``.  Rows with the same
    separation share one panel sum per order.  Each row is gated on the
    shift from the nominal order: the first row above 1e-8 relative raises
    :exc:`NonConvergence` with the message of its one-row call."""

    def principal_values(n):
        pv = np.empty(l.size, dtype=complex)
        for sep in np.unique(l):
            rows = np.flatnonzero(l == sep)
            pv[rows] = pv_gaussian_pole_integral(kappa[rows], sep, n)
        return pv

    coarse = value(principal_values(order))
    fine = value(principal_values(2 * order))
    shift = np.abs(fine - coarse)
    failed = np.flatnonzero(shift > 1e-8 * np.maximum(np.abs(fine), 1e-300))
    if failed.size:
        i = failed[0]
        raise NonConvergence(
            f"{what} quadrature not converged: order doubling moved the result "
            f"by {shift[i]:.3e} (value {abs(fine[i]):.3e})"
        )
    return fine


def pd_double_integral(
    omega_sigma,
    coupling,
    settings: OracleSettings = DEFAULT_SETTINGS,
    return_extrapolants: bool = False,
):
    """Transition probability straight from the regulated two-point
    function: a double integral over the detector's proper time against the
    Gaussian window and the gap phase, evaluated per regulator value and
    extrapolated to zero regulator.  Its offsets o < 0 are the conjugate of
    o > 0, rows reversed, so the sum is real up to summation order (below
    2e-15 of the coupling-squared scale at gaps up to 3.5) and its real
    part is the value.

    Both the quadrature error bound and the extrapolation must
    self-certify to 1e-5; violations raise :exc:`NonConvergence`.  The
    quadrature sum keeps a fixed size while P falls like exp(-gap^2), so at
    the default settings gaps above about 3.8 raise: their round-off
    exceeds 1e-5 of the value.

    Takes broadcast arrays of gaps and couplings and returns a float array
    of the broadcast shape, a Python float for scalars; with
    ``return_extrapolants`` also the increasing-order extrapolant sequence,
    for convergence diagnostics, as a complex array with one more axis.
    Every row has its pole at zero offset, so all rows share one
    cross-Gaussian matrix.  A non-finite argument raises ValueError for the
    whole batch; the first row whose self-checks fail raises
    :exc:`NonConvergence` with the message of its one-row call.
    """
    shape, (omega, lam) = _problems(omega_sigma, coupling)
    # inner time = outer + o; the kernel depends on the offset alone
    values, extrapolants = _regulated_double_integral(
        settings,
        pole=np.zeros(omega.size),
        outer_freq=np.zeros(omega.size),
        later_k=omega,
        prefactor=-lam**2 / (4.0 * np.pi**2),
        rel_tol=1e-5,
    )
    return _shaped(values.real, extrapolants, shape, return_extrapolants)


def pv_gaussian_pole_integral(kappa, l_over_sigma, order: int = 64):
    """Principal value of the Gaussian-windowed two-pole integral

        PV int exp(-v^2/4) exp(-i kappa v / 2) / (v^2 - l^2) dv,

    for a scalar or an array of ``kappa`` at one separation l, with
    ``order`` Gauss-Legendre nodes per panel; the panels depend on l alone,
    so an array is one panel sum.  A non-finite l, or one below the
    domain's floor on the separation, raises ValueError.

    Writes g(v) for the numerator and subtracts
    [g(l)/(2l)] h(v-l) - [g(-l)/(2l)] h(v+l) with h(u) = exp(-u^2)/u, an
    odd kernel of exactly zero principal value; the remainder extends to an
    entire function, so unit panels on [-_HALFWIDTH, _HALFWIDTH], with
    edges pinned at the poles inside it, are spectrally accurate.
    """
    l = float(l_over_sigma)
    if not np.isfinite(l):
        raise ValueError(f"l_over_sigma must be finite, got {l!r}")
    _check_separation(np.float64(l))
    kappa = np.asarray(kappa, dtype=float)[..., None]

    def g(v):
        return np.exp(-v * v / 4.0) * np.exp(-0.5j * kappa * v)

    cp = g(l) / (2.0 * l)
    cm = g(-l) / (2.0 * l)
    poles = (-l, l) if l < _HALFWIDTH else ()
    edges = _fill_edges([-_HALFWIDTH, *poles, _HALFWIDTH], max_width=1.0)
    v, w = _panelize(edges, order)
    u_p = v - l
    u_m = v + l
    remainder = (
        g(v) / (v * v - l * l)
        - cp * np.exp(-u_p * u_p) / u_p
        + cm * np.exp(-u_m * u_m) / u_m
    )
    return np.sum(w * remainder, axis=-1)


def x_single_integral_pv(
    omega_a_sigma,
    omega_b_sigma,
    l_over_sigma,
    coupling,
    settings: OracleSettings = DEFAULT_SETTINGS,
):
    """Pair-correlation amplitude via the single-integral reduction: the
    double integral collapses (Gaussian in the mean time, principal value
    plus a lightcone residue in the time difference).

    Self-checks by doubling the panel order; a relative shift above 1e-8
    raises :exc:`NonConvergence`.  Returns the doubled-order value.

    Takes broadcast arrays of both gaps, the separation and the coupling
    and returns a complex array of the broadcast shape, a Python complex
    for scalars.  Rows with the same separation share the panels, and one
    panel sum per order.  A non-finite argument or a separation below the
    domain's floor raises ValueError for the whole batch; otherwise the first row
    whose order doubling fails raises :exc:`NonConvergence` with the
    message of its one-row call.
    """
    shape, (a, b, l, lam) = _problems(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling)
    _check_separation(l)
    lam2 = lam**2
    d = b - a
    pref = lam2 / (4.0 * np.pi**1.5) * np.exp(-((a + b) ** 2) / 4.0)
    residue = (
        -1j
        * lam2
        / (4.0 * _SQRT_PI * l)
        * np.exp(-((a + b) ** 2 + l * l) / 4.0)
        * np.cos(0.5 * d * l)
    )
    values = _order_doubled(d, l, lambda pv: pref * pv + residue, settings.quadrature_nodes,
                            "principal-value")
    return _scalar(values.reshape(shape))


def x_double_integral(
    omega_a_sigma,
    omega_b_sigma,
    l_over_sigma,
    coupling,
    settings: OracleSettings = DEFAULT_SETTINGS,
    return_extrapolants: bool = False,
):
    """Pair-correlation amplitude by direct time-ordered double
    integration, fully independent of the single-integral reduction.

    The time ordering splits the domain along the equal-time diagonal; each
    triangle is integrated with the inner variable offset from the outer by
    s > 0, with panels refined toward the lightcone pole at s = l.  The
    regulator schedule, extrapolation and quadrature error bound mirror the
    probability route, with the self-checks at this route's 1e-3 accuracy
    target.  X falls like exp(-(gap_A + gap_B)^2 / 4) while the quadrature
    sum does not, so at the default settings a gap sum above about 9 (less
    at large separations and unequal gaps) raises :exc:`NonConvergence`.

    Takes broadcast arrays of both gaps, the separation and the coupling
    and returns a complex array of the broadcast shape, a Python complex
    for scalars; with ``return_extrapolants`` also the extrapolants along
    one more axis.  The result does not depend on which detector carries
    which gap.  Rows with the same separation share one cross-Gaussian
    matrix and one outer-rule certificate per regulator, taken at their
    largest gap sum.  A non-finite argument or a separation below the
    domain's floor raises ValueError for the whole batch, and so does a failed
    certificate, as :exc:`NonConvergence`; otherwise the first row whose
    self-check fails raises :exc:`NonConvergence` with the message of its
    one-row call.
    """
    shape, (a, b, l, lam) = _problems(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling)
    _check_separation(l)
    lam2 = lam**2
    # inner time = outer +- o; the later half is the later-B triangle
    values, extrapolants = _regulated_double_integral(
        settings,
        pole=l,
        outer_freq=a + b,
        later_k=-b,
        prefactor=lam2 / (4.0 * np.pi**2),
        rel_tol=1e-3,
        time_ordered=True,
    )
    return _shaped(values, extrapolants, shape, return_extrapolants)


def c_quadrature(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling,
                 settings: OracleSettings = DEFAULT_SETTINGS):
    """Exchange correlation (the amplitude linking the two singly-excited
    states), for which no closed form exists.

    Reduced to mean/difference time variables: the mean-time Gaussian
    integrates analytically, the difference-time integral is the same
    principal-value-plus-residue machinery as the single-integral
    correlation route (both lightcone poles now sit on the same side of the
    contour, so the residue enters through a sine).  Self-checks by panel
    order doubling at 1e-8.  Takes, shares and refuses as
    :func:`x_single_integral_pv` does.
    """
    shape, (a, b, l, lam) = _problems(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling)
    _check_separation(l)
    d = b - a
    kappa = a + b
    pref = -lam**2 * _SQRT_PI / (4.0 * np.pi**2) * np.exp(-d * d / 4.0)
    residue = np.pi / l * np.exp(-l * l / 4.0) * np.sin(0.5 * kappa * l)
    values = _order_doubled(kappa, l, lambda pv: pref * (pv + residue),
                            settings.quadrature_nodes, "exchange-correlation")
    return _scalar(values.reshape(shape))


def c_double_integral(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling,
                      settings: OracleSettings = DEFAULT_SETTINGS):
    """Exchange correlation by direct double integration with the regulator
    schedule; the independent cross-check of :func:`c_quadrature`.  No time
    ordering here, so the kernel's two poles are offset to the same side
    and the offset runs over the whole line, its o < 0 half the conjugate
    of the o > 0 half's product.  Takes, shares and refuses as
    :func:`x_double_integral` does, and returns no extrapolants."""
    shape, (a, b, l, lam) = _problems(omega_a_sigma, omega_b_sigma, l_over_sigma, coupling)
    _check_separation(l)
    # inner time = outer + o, so the kernel argument is -o; its square is
    # the same, and the regulated poles sit at o = +-l - i eps
    values, _ = _regulated_double_integral(
        settings,
        pole=l,
        outer_freq=a - b,
        later_k=b,
        prefactor=-lam**2 / (4.0 * np.pi**2),
        rel_tol=1e-3,
    )
    return _scalar(values.reshape(shape))


@dataclass
class DensityMatrix4:
    """Joint detector-pair state to second order in the coupling, in the
    ordered basis (both ground, only B excited, only A excited, both
    excited)."""

    entries: np.ndarray

    def validate(self):
        m = self.entries
        if m.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian to 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError("density matrix trace differs from 1 by more than 1e-10")
        mask = np.array(
            [
                [False, True, True, False],
                [True, False, False, True],
                [True, False, False, True],
                [False, True, True, True],
            ]
        )
        if np.max(np.abs(m[mask])) > 1e-12:
            raise ValueError("entries outside the allowed sparsity pattern")
        return self

    def concurrence(self) -> float:
        """Concurrence of this two-detector state, using the structure of
        the allowed sparsity pattern."""
        m = self.entries
        return 2.0 * max(0.0, abs(m[0, 3]) - float(np.sqrt(m[1, 1].real * m[2, 2].real)))


def assemble_rho(cfg: DetectorPairConfig, settings: OracleSettings = DEFAULT_SETTINGS):
    """Assemble the joint state: probabilities and pair correlation from
    the closed forms, exchange correlation from quadrature (its only
    route).  The result is validated before being returned."""
    p_a = transition_probability(cfg.omega_a_sigma, cfg.coupling)
    p_b = transition_probability(cfg.omega_b_sigma, cfg.coupling)
    x = correlation_x(cfg)
    c = c_quadrature(cfg.omega_a_sigma, cfg.omega_b_sigma, cfg.l_over_sigma, cfg.coupling,
                     settings)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - p_a - p_b
    m[1, 1] = p_b
    m[2, 2] = p_a
    m[1, 2] = c
    m[2, 1] = np.conj(c)
    m[0, 3] = x
    m[3, 0] = np.conj(x)
    return DensityMatrix4(m).validate()

