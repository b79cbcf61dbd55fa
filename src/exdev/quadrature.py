"""Peak-centered quadrature for log-represented integrands on the half line.

Every integral here is of the form integral of exp(L(x)) dx over [0, inf)
where L has a single interior or boundary maximum and decays superlinearly.
Values are returned on the log scale, so exponents of order 1e5 are
routine.

`moments` (mass, mean, variance and mu3 of exp(L), the tilted cumulants) is
one vectorized trapezoid on the centered exponent E(delta) = L(x* + delta)
- L(x*), which the caller forms without cancellation, so its digits do not
depend on the size of L.  The trapezoid converges exponentially for smooth
integrands with fast decay (Trefethen & Weideman 2014, SIAM Rev. 56:385),
and the same nodes at step 2h give its error estimate.  Where the integrand
has a kink or jump at x = 0 inside the window, the trapezoid runs in
v = log x instead.  At t = 0 its mass is a density's normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import Divergent, NonMonotone, NumericalError

# exp(-690) is still representable; past ~745 it underflows to 0.
DROP = 690.0
BISECT_ITERS = 80

# the moment trapezoids: node step H in standard units (1/sqrt(-L'') at
# the rule's center), the tolerance on the h-versus-2h difference, the
# window probes in standard units (the last one bounds the window), and the
# integrand level, relative to the peak, below which a cut loses nothing
# (exp(-40) ~ 4e-18)
H = 0.05
TRAP_TOL = 1e-12
REACH = 40.0 * 2.0 ** np.arange(7)
CLIP_DROP = 40.0
# left end of exponent_peak's bracket: h is never evaluated at 0 itself
PEAK_LO = 1e-12

# x0 -> (L(x0), the centered exponent about x0, h'(x0)); see `moments`
Centered = Callable[[float], tuple[float, Callable[[np.ndarray], np.ndarray],
                                   float]]


def bisect_drop(L: Callable[[float], float], x_in: float, x_out: float,
                target: float) -> float:
    """Point between x_in (L >= target) and x_out (L < target) where L crosses."""
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (x_in + x_out)
        if mid == x_in or mid == x_out:
            break
        if L(mid) >= target:
            x_in = mid
        else:
            x_out = mid
    return x_out


@dataclass(frozen=True)
class LogMoments:
    """Normalizer and first three central moments of exp(L(x)) on [0, inf)."""

    log_z: float
    mean: float
    var: float
    mu3: float


def moments(h: Callable[[float], float], t: float, centered: Centered,
            probe: float) -> LogMoments:
    """Mean, variance and third central moment of the density prop. to
    exp(L) on [0, inf), where L' = t - h and h increases.

    centered(x0) gives, for x0 > 0, L(x0), the centered exponent delta ->
    L(x0 + delta) - L(x0) on float arrays (formed without cancellation) and
    h'(x0).  At an interior peak x* (h(x*) = t, found from probe) one
    trapezoid in x sums the mass and the moments (`_x_rule`).  Where that
    rule does not apply, a kink or jump of the integrand at x = 0 inside
    its window, the same trapezoid runs in v = log x about the peak of
    L(e^v) + v (`_log_rule`), which turns the edge into exponential decay.
    """
    x_peak = exponent_peak(h, t, probe)
    mom = _x_rule(centered, x_peak) if x_peak > 0.0 else None
    if mom is None:
        # the peak of L(x) + log x, which is L(e^v) + v
        x0 = exponent_peak(lambda x: h(x) - 1.0 / x, t, probe)
        mom = _log_rule(centered, x0) if x0 > 0.0 else None
    if mom is None:
        raise NumericalError(
            f"moment trapezoid missed its tolerance at t={t!r}")
    return mom


def _x_rule(centered: Centered, x_peak: float) -> Optional[LogMoments]:
    """The trapezoid in delta = x - x_peak with step H / sqrt(h'(x_peak))
    over the window where E >= -DROP, or None when that window is cut at
    x = 0 with the integrand within one step of the cut above
    exp(-CLIP_DROP) of its peak, reaches past REACH[-1] standard units, or
    the rule misses TRAP_TOL."""
    L0, E, curvature = centered(x_peak)
    if not 0.0 < curvature < math.inf:
        return None
    scale = 1.0 / math.sqrt(curvature)
    step = H * scale
    # left probes stop at x = 0; REACH increases, so they are a prefix
    inside = int(np.sum(REACH * scale < x_peak))
    probe = E(np.concatenate((REACH * scale, -REACH[:inside] * scale,
                              [-x_peak, step - x_peak])))
    k = REACH.size
    j_hi, j_lo = _reach(probe[:k], DROP), _reach(probe[k:-2], DROP)
    if j_hi is None:
        return None
    if j_lo is not None:
        j_lo = -j_lo
    elif probe[-2:].max() < -CLIP_DROP:
        j_lo = -math.floor(x_peak / step)
        if j_lo * step < -x_peak:
            j_lo += 1
    else:
        return None
    delta = np.arange(j_lo, j_hi + 1) * step
    return _rule(L0 + math.log(step), x_peak, delta, E(delta), j_lo)


def _log_rule(centered: Centered, x0: float) -> Optional[LogMoments]:
    """The trapezoid in v = log(x / x0), x0 the peak of L(e^v) + v, with
    step H / sqrt(1 + x0^2 h'(x0)) over the window where L(x0 e^v) + v
    stays within CLIP_DROP of its value at x0 (the mass beyond is below
    exp(-CLIP_DROP) of the peak's), or None when the window reaches past
    REACH[-1] standard units or the rule misses TRAP_TOL."""
    L0, E, curvature = centered(x0)
    curvature_v = 1.0 + x0 * x0 * curvature
    if not 0.0 < curvature_v < math.inf:
        return None
    scale = 1.0 / math.sqrt(curvature_v)
    step = H * scale

    def F(v: np.ndarray) -> np.ndarray:
        return E(x0 * np.expm1(v)) + v

    with np.errstate(over="ignore", invalid="ignore"):
        probe = F(np.concatenate((REACH * scale, -REACH * scale)))
    k = REACH.size
    j_hi, j_lo = _reach(probe[:k], CLIP_DROP), _reach(probe[k:], CLIP_DROP)
    if j_hi is None or j_lo is None:
        return None
    v = np.arange(-j_lo, j_hi + 1) * step
    return _rule(L0 + math.log(x0 * step), x0, x0 * np.expm1(v), F(v), -j_lo)


def _reach(probe: np.ndarray, drop: float) -> Optional[int]:
    """Node count ceil(REACH[i] / H) out to the first probe (at REACH[i]
    standard units) below -drop, or None when no probe is."""
    below = probe < -drop
    return math.ceil(REACH[below.argmax()] / H) if below.any() else None


def _rule(log_unit: float, x0: float, delta: np.ndarray, log_w: np.ndarray,
          j_lo: int) -> Optional[LogMoments]:
    """LogMoments of the nodes x0 + delta (node j_lo first) with
    trapezoid weights exp(log_w) in units of exp(log_unit), or None when the
    rule and its step-2h half, the nodes of even j, differ by more than
    TRAP_TOL (z and s2 relative, the mean in units of s, mu3 in units of
    s^3)."""
    w = np.exp(log_w)
    z, mean, var, mu3 = _sums(delta, w)
    even = j_lo % 2
    z2, mean2, var2, mu3_2 = _sums(delta[even::2], w[even::2])
    if not (var > 0.0 and math.isfinite(var) and z > 0.0
            and math.isfinite(log_unit)):
        return None
    s = math.sqrt(var)
    err = max(abs(z / (2.0 * z2) - 1.0), abs(mean - mean2) / s,
              abs(var / var2 - 1.0), abs(mu3 - mu3_2) / s ** 3)
    if not err <= TRAP_TOL:
        return None
    return LogMoments(log_z=log_unit + math.log(z), mean=x0 + float(mean),
                      var=float(var), mu3=float(mu3))


def _sums(delta: np.ndarray, w: np.ndarray):
    """Sum of w, and the mean, variance and mu3 of delta under weights w
    (centered in a second pass).  Products are summed by numpy's pairwise
    sum, not BLAS dot, so no BLAS thread is woken."""
    z = w.sum()
    mean = (delta * w).sum() / z
    dev = delta - mean
    dw = dev * dev * w
    return z, mean, dw.sum() / z, (dw * dev).sum() / z


def exponent_peak(h: Callable[[float], float], t: float,
                  x_probe: float) -> float:
    """Maximizer on [0, inf) of x -> t*x - g(x), where h = g'.

    This is the one solver for an increasing equation h(x) = t: it brackets
    the root by doubling up from x_probe (raising NonMonotone if h decreases
    on the way) or halving down towards 0, then runs brentq when the root is
    interior; returns 0.0 when the exponent is decreasing from the boundary
    on.
    """
    from scipy.optimize import brentq

    def fval(x: float) -> float:
        # an h that overflowed to +inf lies above t; only NaN counts as below
        v = h(x) - t
        return -math.inf if math.isnan(v) else v

    a, b = PEAK_LO, max(x_probe, 2.0 * PEAK_LO)
    fb = fval(b)
    grow = 0
    while fb < 0.0:
        a, b, fa = b, b * 2.0, fb
        fb = fval(b)
        if fb < fa - abs(fb + t) * 1e-9:
            raise NonMonotone("h decreased while expanding the bracket")
        grow += 1
        if grow > 200 or b > 1e15:
            raise Divergent(f"h never reaches the tilt level t={t!r}")
    fa = fval(a)
    shrink = 0
    while fa > 0.0:
        b, a = a, a * 0.5
        fa = fval(a)
        shrink += 1
        if shrink > 80:
            return 0.0  # h(0+) >= t: exponent decreasing, boundary peak
    if fa == 0.0:
        return a
    return float(brentq(lambda x: h(x) - t, a, b, xtol=1e-300, rtol=8.9e-16))
