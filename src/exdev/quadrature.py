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
v = log x instead.  At t = 0 its mass is a density's normalizer.  A rule
also returns its center x0 and its log-mass log_z - L(x0), formed without
L(x0), from which `tilting.TiltedDensity` writes its density at any level.

`solve_increasing`, safeguarded Newton on an increasing f and its slope, is
the package's one root solver: every tilt peak (`exponent_peak`, hence psi),
every tilt with m(t) = a (`tilting.invert_m`, the level-set tilt) and both
window cuts of a sampler table (`tables.build_cdf_table`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketFail, Divergent, NonMonotone, NumericalError

# exp(-690) is still representable; past ~745 it underflows to 0.
DROP = 690.0

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
# solve_increasing: the Newton step budget, and the relative step (or
# checked bracket width) at which an iterate counts as the root
NEWTON_ITERS = 80
STEP_TOL = 4.0 * sys.float_info.epsilon

# x0 -> (L(x0), the centered exponent about x0); see `moments`
Centered = Callable[[float], tuple[float, Callable[[np.ndarray], np.ndarray]]]
# x -> (f(x), f'(x)) for an increasing f; see `solve_increasing`
Increasing = Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class LogMoments:
    """Normalizer, first three central moments, center x0 and log_mass =
    log_z - L(x0) (formed without L(x0)) of exp(L(x)) on [0, inf)."""

    log_z: float
    mean: float
    var: float
    mu3: float
    x0: float
    log_mass: float


def moments(hd: Increasing, t: float, centered: Centered,
            probe: float) -> LogMoments:
    """Mean, variance and third central moment of the density prop. to
    exp(L) on [0, inf), where L' = t - h, h increases and hd(x) = (h(x),
    h'(x)).

    centered(x0) gives, for x0 > 0, L(x0) and the centered exponent delta ->
    L(x0 + delta) - L(x0) on float arrays (formed without cancellation),
    whose curvature -h'(x0) comes from hd.  At an interior peak x* (h(x*)
    = t, found from probe) one trapezoid in x sums the mass and the moments
    (`_x_rule`).  Where that rule does not apply, a kink or jump of the
    integrand at x = 0 inside its window, the same trapezoid runs in v =
    log x about the peak of L(e^v) + v (`_log_rule`), which turns the edge
    into exponential decay.
    """
    x_peak = exponent_peak(hd, t, probe)
    mom = _x_rule(centered, x_peak, hd(x_peak)[1]) if x_peak > 0.0 else None
    if mom is None:
        # the peak of L(x) + log x, which is L(e^v) + v
        def log_hd(x: float) -> tuple[float, float]:
            h, h1 = hd(x)
            return h - 1.0 / x, h1 + 1.0 / (x * x)

        x0 = exponent_peak(log_hd, t, probe)
        mom = _log_rule(centered, x0, hd(x0)[1]) if x0 > 0.0 else None
    if mom is None:
        raise NumericalError(
            f"moment trapezoid missed its tolerance at t={t!r}")
    return mom


def _x_rule(centered: Centered, x_peak: float,
            curvature: float) -> Optional[LogMoments]:
    """The trapezoid in delta = x - x_peak with step H / sqrt(h'(x_peak)),
    h'(x_peak) = curvature, over the window where E >= -DROP, or None when
    that window is cut at x = 0 with the integrand within one step of the
    cut above exp(-CLIP_DROP) of its peak, reaches past REACH[-1] standard
    units, or the rule misses TRAP_TOL."""
    L0, E = centered(x_peak)
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
    return _rule(L0, math.log(step), x_peak, delta, E(delta), j_lo)


def _log_rule(centered: Centered, x0: float,
              curvature: float) -> Optional[LogMoments]:
    """The trapezoid in v = log(x / x0), x0 the peak of L(e^v) + v, with
    step H / sqrt(1 + x0^2 h'(x0)), h'(x0) = curvature, over the window
    where L(x0 e^v) + v stays within CLIP_DROP of its value at x0 (the mass
    beyond is below exp(-CLIP_DROP) of the peak's), or None when the window
    reaches past REACH[-1] standard units or the rule misses TRAP_TOL."""
    L0, E = centered(x0)
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
    return _rule(L0, math.log(x0 * step), x0, x0 * np.expm1(v), F(v), -j_lo)


def _reach(probe: np.ndarray, drop: float) -> Optional[int]:
    """Node count ceil(REACH[i] / H) out to the first probe (at REACH[i]
    standard units) below -drop, or None when no probe is."""
    below = probe < -drop
    return math.ceil(REACH[below.argmax()] / H) if below.any() else None


def _rule(L0: float, log_step: float, x0: float, delta: np.ndarray,
          log_w: np.ndarray, j_lo: int) -> Optional[LogMoments]:
    """LogMoments of the nodes x0 + delta (node j_lo first) with
    trapezoid weights exp(log_w) in units of exp(L0 + log_step), or None
    when the rule and its step-2h half, the nodes of even j, differ by more
    than TRAP_TOL (z and s2 relative, the mean in units of s, mu3 in units
    of s^3)."""
    w = np.exp(log_w)
    z, mean, var, mu3 = _sums(delta, w)
    even = j_lo % 2
    z2, mean2, var2, mu3_2 = _sums(delta[even::2], w[even::2])
    log_unit = L0 + log_step
    if not (var > 0.0 and math.isfinite(var) and z > 0.0
            and math.isfinite(log_unit)):
        return None
    s = math.sqrt(var)
    err = max(abs(z / (2.0 * z2) - 1.0), abs(mean - mean2) / s,
              abs(var / var2 - 1.0), abs(mu3 - mu3_2) / s ** 3)
    if not err <= TRAP_TOL:
        return None
    return LogMoments(log_z=log_unit + math.log(z), mean=x0 + float(mean),
                      var=float(var), mu3=float(mu3), x0=x0,
                      log_mass=log_step + math.log(z))


def _sums(delta: np.ndarray, w: np.ndarray):
    """Sum of w, and the mean, variance and mu3 of delta under weights w
    (centered in a second pass).  Products are summed by numpy's pairwise
    sum, not BLAS dot, so no BLAS thread is woken."""
    z = w.sum()
    mean = (delta * w).sum() / z
    dev = delta - mean
    dw = dev * dev * w
    return z, mean, dw.sum() / z, (dw * dev).sum() / z


def solve_increasing(fd: Increasing, target: float, x0: float, *,
                     lo: float, at_lo: tuple[float, float], x_max: float,
                     rtol: float, xtol: float = 0.0) -> float:
    """x in [lo, x_max] with f(x) = target, by Newton on fd(x) = (f(x),
    f'(x)) for an increasing f.  When f(x0) < target it starts from x0 in
    the bracket (x0, 2 x0), whose top is evaluated, and doubled up to x_max
    while f stays below target, only when a step leaves it; otherwise from
    the end of (lo, x0) closer to target, at_lo standing in for fd(lo).  A
    step that leaves the bracket bisects it; NaN counts as below target.
    Returns once |f - target| <= rtol |target| or the step or the checked
    bracket is at most max(STEP_TOL |x|, xtol).  Raises NonMonotone if f
    falls as the bracket grows, Divergent naming f(x_max) if that is below
    target, and BracketFail if NEWTON_ITERS steps leave a residual above
    1e-9 relative.
    """
    x, (f, slope) = x0, fd(x0)
    if not f >= target:
        lo, hi, checked = x0, min(2.0 * x0, x_max), False
    else:
        hi, checked = x0, True
        if abs(at_lo[0] - target) < abs(f - target):
            x, (f, slope) = lo, at_lo
    for _ in range(NEWTON_ITERS):
        if abs(f - target) <= rtol * abs(target):
            return x
        if f > target:
            hi, checked = min(hi, x), True
        else:
            lo = max(lo, x)
        step = (target - f) / slope if slope > 0.0 else math.nan
        tol = max(STEP_TOL * abs(x), xtol)
        if abs(step) <= tol or checked and hi - lo <= tol:
            return x
        x_new = x + step
        if not (lo < x_new < hi or checked):
            # every point so far lies below target, so lo = x and f = f(lo)
            while not (f_hi := fd(hi)[0]) >= target:
                if f_hi < f - abs(f_hi) * 1e-9:
                    raise NonMonotone("f fell while the bracket grew")
                if hi >= x_max:
                    raise Divergent(f"f(x_max) = {f_hi!r} lies below the "
                                    f"target {target!r} (x_max = {x_max!r})")
                lo, hi, f = hi, min(2.0 * hi, x_max), f_hi
            checked = True
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
        f, slope = fd(x)
    if abs(f - target) <= 1e-9 * abs(target):
        return x
    raise BracketFail(
        f"root solve stalled: residual {abs(f - target):.3e} at x={x!r}")


def exponent_peak(hd: Increasing, t: float, x_probe: float) -> float:
    """Maximizer on [0, inf) of x -> t*x - g(x), hd(x) = (h(x), h'(x)) with
    h = g' increasing: the root of h(x) = t up to the largest double from
    x_probe, or 0.0 when h(PEAK_LO) >= t (a boundary peak)."""
    at_lo = hd(PEAK_LO)
    if at_lo[0] >= t:
        return 0.0
    return solve_increasing(hd, t, x_probe, lo=PEAK_LO, at_lo=at_lo,
                            x_max=sys.float_info.max, rtol=0.0)
