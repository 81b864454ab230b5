"""High-precision reference for the ``explore`` checks.

Values come from the textbook expressions, evaluated with mpmath at 50
digits, so they share no algebra with the package's scaled Faddeeva forms:

    P(x) = lam^2/(4 pi) * [exp(-x^2) - sqrt(pi) x erfc(x)]
    X    = -lam^2/(4 sqrt(pi) l) * exp(-((a+b)^2 + l^2)/4)
           * [Re(exp(-i d l/2) Erfi((l + i d)/2)) + i cos(d l/2)]

with b = a + d.  The excess |X| - sqrt(P_A P_B) decides harvesting; the
concurrence is twice its positive part.
"""

from __future__ import annotations

import math
import sys

import mpmath

DIGITS = 50

# Concurrence values must match the reference to this share of the scale
# |X| + sqrt(P_A P_B) (the closed forms agree with the oracles to ~1e-9).
VALUE_RTOL = 1e-9

# Below this scale the tolerance itself is no longer a normal double, so the
# true value is treated as below the double range: the only requirement
# left is that the code does not claim positive concurrence where the true
# excess is negative.
TINY = sys.float_info.min / VALUE_RTOL

# The absolute rounding step of doubles below the normal range.  The known
# large-gap defect of the unscaled excess is that P_A * P_B, the prefactor
# exp(-(2a + d)^2 / 4) of X, or X itself leave the normal range, so that
# they round in steps of this size or to zero.  A failed check is put down
# to that defect (counted, listed as "known", but not marking the run
# incorrect) only if the same certificate holds for some excess that a
# double-precision evaluation with exactly those roundings can give; any
# other failure, a wrong value or root away from the underflow included,
# marks the run incorrect (but see NARROW_PEAK).
SUBNORMAL = math.ulp(0.0)

# The gap search's second known defect: its coarse scan can miss a peak
# that rises from zero gap difference and falls back within the first scan
# cell, and then reports a boundary maximum at zero (a = 0.70, l = 1.94:
# the peak is at d ~ 0.01, 1e-5 above the value at zero).  Such a boundary
# answer is put down to that defect only if the concurrence at this share
# of the gap bound is already below its value at zero.
NARROW_PEAK = 0.01

# Bracket widening for the sign-change certificates of root searches.
WIDEN = 1e-8

# Relative step for the local-maximum certificate of the gap search.
PEAK_STEP = 1e-4


class Reference:
    """Textbook P, X and excess at ``DIGITS`` digits for one coupling."""

    def __init__(self, coupling):
        self.mp = mpmath.MPContext()
        self.mp.dps = DIGITS
        self.lam2 = self.mp.mpf(coupling) ** 2
        self._p = {}

    def p(self, x):
        if x not in self._p:
            mp = self.mp
            xm = mp.mpf(x)
            self._p[x] = self.lam2 / (4 * mp.pi) * (
                mp.exp(-xm * xm) - mp.sqrt(mp.pi) * xm * mp.erfc(xm)
            )
        return self._p[x]

    def gm(self, a, d):
        return self.mp.sqrt(self.p(a) * self.p(a + d))

    def x_abs(self, a, d, l):
        mp = self.mp
        a, d, l = mp.mpf(a), mp.mpf(d), mp.mpf(l)
        b = a + d
        z = mp.mpc(l, d) / 2
        bracket = mp.mpc(
            mp.re(mp.exp(mp.mpc(0, -d * l / 2)) * mp.erfi(z)), mp.cos(d * l / 2)
        )
        pref = self.lam2 / (4 * mp.sqrt(mp.pi) * l) * mp.exp(-((a + b) ** 2 + l * l) / 4)
        return pref * abs(bracket)

    def excess(self, a, d, l):
        return self.x_abs(a, d, l) - self.gm(a, d)

    def concurrence(self, a, d, l):
        """(concurrence, scale |X| + sqrt(P_A P_B)) as mpmath numbers."""
        x, g = self.x_abs(a, d, l), self.gm(a, d)
        return 2 * max(x - g, 0), x + g

    def excess_range(self, a, d, l, doubles=False):
        """(low, high) bounds of the excess: the exact value twice, or with
        ``doubles`` every value a double-precision evaluation can give when
        each quantity is good to VALUE_RTOL relative and P_A, P_B, their
        product, the prefactor of X = pref * bracket (the form the package
        evaluates) and |X| each round in steps of SUBNORMAL."""
        x, g = self.x_abs(a, d, l), self.gm(a, d)
        if not doubles:
            return x - g, x - g
        mp = self.mp
        u, r = mp.mpf(SUBNORMAL), mp.mpf(VALUE_RTOL)
        am, dm, lm = mp.mpf(a), mp.mpf(d), mp.mpf(l)
        pref = self.lam2 / (8 * mp.sqrt(mp.pi) * lm) * mp.exp(-((2 * am + dm) ** 2) / 4)
        x_err = r * x + 4 * u * max(1, x / pref)
        pa, pb = self.p(a), self.p(a + d)
        ea, eb = r * pa + 2 * u, r * pb + 2 * u
        # P_A * P_B rounds to the nearest multiple of SUBNORMAL at worst
        prod_lo = u * max(0, mp.ceil(max(0, pa - ea) * max(0, pb - eb) * (1 - r) / u - 0.5))
        prod_hi = u * mp.floor((pa + ea) * (pb + eb) * (1 + r) / u + 0.5)
        g_lo, g_hi = mp.sqrt(prod_lo) * (1 - r), mp.sqrt(prod_hi) * (1 + r)
        return max(0, x - x_err) - g_hi, x + x_err - g_lo

    def concurrence_range(self, a, d, l, doubles=False):
        lo, hi = self.excess_range(a, d, l, doubles)
        return 2 * max(lo, 0), 2 * max(hi, 0)

    # -- certificates ----------------------------------------------------
    #
    # Each takes ``known``: False certifies against the exact reference;
    # True asks whether a known defect of the program explains the output:
    # whether a double-precision evaluation rounding as in ``excess_range``
    # could certify it, or (gap search) whether it is the coarse scan's
    # boundary answer described at NARROW_PEAK.

    def value_ok(self, a, d, l, value, known=False):
        """Concurrence ``value`` from the code against the reference."""
        c, scale = self.concurrence(a, d, l)
        if known:
            lo, hi = self.concurrence_range(a, d, l, known)
            tol = VALUE_RTOL * scale
            return lo - tol <= self.mp.mpf(value) <= hi + tol
        if scale >= TINY:
            return abs(self.mp.mpf(value) - c) <= VALUE_RTOL * scale
        return value == 0.0 or c > 0

    def lmax_ok(self, a, d, outcome, exceptions, known=False):
        """Largest harvesting separation: a sign change of the excess across
        the widened bracket and, where the large-gap estimate holds (both
        gaps large: a >= 4 and d <= a), within 10 % of it, as acceptance
        criterion 4 asks at a = 4, d <= 2.  BracketingFailure is right only
        if the excess is still positive at the bound; NoHarvestingRegion only
        if no probe harvests."""
        def excess(l):
            return self.excess_range(a, d, l, known)

        est = 2.0 * math.sqrt(a * (a + d))
        if isinstance(outcome, exceptions["BracketingFailure"]):
            return excess(outcome.lower_bound)[1] > 0
        if isinstance(outcome, exceptions["NoHarvestingRegion"]):
            return all(excess(l)[0] <= 0 for l in _probes(est))
        if isinstance(outcome, BaseException):
            return False
        lo, hi = outcome.bracket
        w = WIDEN * max(1.0, hi)
        ok = excess(lo - w)[1] > 0 and excess(hi + w)[0] <= 0
        if known:
            # the estimate is for the true root: a root that the underflow
            # moved is known only if it fails the exact sign change
            return ok and not (self.excess(a, d, lo - w) > 0 >= self.excess(a, d, hi + w))
        if a >= 4.0 and d <= a:
            ok = ok and abs(outcome.location - est) <= 0.10 * outcome.location
        return ok

    def optimal_gap_ok(self, a, l, gap_bound, outcome, known=False):
        """Gap search: the reported location is a local maximum of the
        reference concurrence on [0, gap_bound].  Where every compared value
        is below the double range, only a positive claim against a zero
        truth fails."""
        if isinstance(outcome, BaseException):
            return False
        loc = outcome.location
        h = PEAK_STEP * gap_bound
        sides = [x for x in (loc - h, loc + h) if 0.0 <= x <= gap_bound]
        if known and loc == 0.0 and (self.concurrence(a, NARROW_PEAK * gap_bound, l)[0]
                                     < self.concurrence(a, 0.0, l)[0]):
            return True
        if known:
            # where P_A * P_B rounds to zero the rounded concurrence jumps,
            # and a search converging on the jump returns its location: the
            # value there is reached just outside the final bracket
            lo, hi = outcome.bracket
            w = WIDEN * max(1.0, hi)
            top = max(self.concurrence_range(a, x, l, known)[1]
                      for x in (lo - w, loc, hi + w) if 0.0 <= x <= gap_bound)
            return all(top >= self.concurrence_range(a, x, l, known)[0] for x in sides)
        c0, s0 = self.concurrence(a, loc, l)
        cs = [self.concurrence(a, x, l) for x in sides]
        if max([s0] + [s for _, s in cs]) < TINY:
            return outcome.value == 0.0 or c0 > 0
        return all(c0 >= c for c, _ in cs)

    def crossover_ok(self, a, d, scan_bound, outcome, exceptions, known=False):
        """Crossover: the concurrence difference (unequal minus identical)
        changes sign from <= 0 to > 0 across the widened bracket.
        NoCrossover is right only if no probe with a representable
        concurrence shows a positive difference."""
        def diff(l):
            """(low, high) bounds of the difference."""
            lo, hi = self.concurrence_range(a, d, l, known)
            lo0, hi0 = self.concurrence_range(a, 0.0, l, known)
            return lo - hi0, hi - lo0

        if isinstance(outcome, exceptions["NoCrossover"]):
            for l in _linspace(0.01, scan_bound, 16):
                if known:
                    if diff(l)[0] > 0:
                        return False
                    continue
                c, scale = self.concurrence(a, d, l)
                if scale >= TINY and c >= TINY and diff(l)[0] > 0:
                    return False
            return True
        if isinstance(outcome, BaseException):
            return False
        lo, hi = outcome.bracket
        w = WIDEN * max(1.0, hi)
        return diff(lo - w)[0] <= 0 < diff(hi + w)[1]


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _probes(est):
    """Separations at which a harvesting region, if any, should show: short
    distances for small gaps, fractions of the large-gap estimate otherwise."""
    fixed = [0.05, 0.25, 0.5, 1.0, 2.0]
    return fixed + [f * est for f in (0.25, 0.5, 0.75, 0.9) if f * est > 0.05]
