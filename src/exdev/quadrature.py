"""Peak-centered quadrature for log-represented integrands on the half line.

Every integral here is of the form integral of exp(L(x)) dx over [0, inf)
where L has a single interior or boundary maximum and decays superlinearly.
The peak value is subtracted before exponentiation, the integration window is
cut where the normalized integrand falls below exp(-DROP), and scipy's
adaptive quadrature runs on the bounded window with the peak registered as a
breakpoint.  Values are returned on the log scale, so exponents of order 1e5
are routine.

The callbacks L and h are scalar Python functions called once per node.  The
densities and tilting layers build them on the scalar term path
(`LightTailDensity.g_scalar`, `g_prime_scalar`), which equals the array path
g(x), g'(x) bit for bit, so quad sees the same values either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate

from .errors import Divergent, NonMonotone, NumericalError

# exp(-690) is still representable; past ~745 it underflows to 0.
DROP = 690.0
BISECT_ITERS = 80
EPSREL = 1e-11
# left end of exponent_peak's bracket: h is never evaluated at 0 itself
PEAK_LO = 1e-12


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


def window(L: Callable[[float], float], x_peak: float) -> tuple[float, float]:
    """[x_lo, x_hi] in [0, inf) outside of which exp(L - L(x_peak)) < exp(-DROP).

    Raises Divergent when L keeps growing to the right of x_peak, which means
    the supplied peak was not a maximum (e.g. a sub-linear exponent tilted too
    hard).
    """
    M = L(x_peak)
    if not math.isfinite(M):
        raise NumericalError(f"integrand peak value is not finite at x={x_peak!r}")
    target = M - DROP

    if x_peak <= 0.0:
        x_lo = 0.0
    else:
        v = L(0.0)
        if math.isnan(v):
            v = -math.inf
        x_lo = 0.0 if v >= target else bisect_drop(L, x_peak, 0.0, target)

    w = max(1e-6, 1e-3 * (1.0 + abs(x_peak)))
    x = x_peak
    for _ in range(200):
        x_next = x_peak + w
        v = L(x_next)
        if v > M + 1e-9 * abs(M) + 1e-12 and w > 1e-3 * (1.0 + abs(x_peak)):
            raise Divergent("integrand increases beyond the supplied peak")
        if v < target:
            x_hi = bisect_drop(L, x, x_next, target)
            break
        x = x_next
        w *= 2.0
        if x_peak + w > 1e15:
            raise Divergent("integrand does not decay on the right")
    else:  # pragma: no cover - loop always breaks or raises
        raise Divergent("window expansion failed")
    return x_lo, x_hi


def _quad(f, a: float, b: float, pts, epsrel: float,
          epsabs: float = 0.0) -> float:
    inside = [p for p in pts if a < p < b]
    val, _ = integrate.quad(f, a, b, points=inside or None,
                            limit=300, epsabs=epsabs, epsrel=epsrel)
    return val


def log_integral(L: Callable[[float], float], x_peak: float) -> float:
    """log of integral_0^inf exp(L(x)) dx."""
    x_lo, x_hi = window(L, x_peak)
    M = L(x_peak)
    # relative accuracy beyond the rounding noise of L is unattainable
    epsrel = max(EPSREL, 1e-14 + 2e-15 * abs(M))
    val = _quad(lambda x: math.exp(L(x) - M), x_lo, x_hi, [x_peak], epsrel)
    if not val > 0.0:
        raise NumericalError("quadrature returned a non-positive mass")
    return M + math.log(val)


@dataclass(frozen=True)
class LogMoments:
    """Normalizer and first three central moments of exp(L(x)) on [0, inf)."""

    log_z: float
    mean: float
    var: float
    mu3: float


def moments(L: Callable[[float], float], x_peak: float) -> LogMoments:
    """Mean, variance and third central moment of the density prop. to exp(L).

    Odd moments about the center suffer catastrophic cancellation at strong
    tilts (the law is nearly symmetric, so the two halves of a centered
    integral agree to many digits).  They are therefore integrated in the
    reflected variable u = |x - c| with integrand u^k (f(c+u) - f(c-u)),
    which subtracts inside the integrand, and the residual offset of the
    reflection center c from the true mean is removed through the exact
    shift identities for central moments.
    """
    x_lo, x_hi = window(L, x_peak)
    M = L(x_peak)
    # forming L at a strong tilt cancels terms of size |L(x_peak)|, leaving
    # relative rounding noise ~eps * |M| in every integrand value; asking
    # quad for more than that just burns subdivisions
    noise = 1e-14 + 2e-15 * abs(M)
    epsrel = max(EPSREL, noise)

    def f(x: float) -> float:
        return math.exp(L(x) - M)

    z = _quad(f, x_lo, x_hi, [x_peak], epsrel)
    if not z > 0.0:
        raise NumericalError("quadrature returned a non-positive mass")
    c = _quad(lambda x: x * f(x), x_lo, x_hi, [x_peak], epsrel) / z

    reach_r = x_hi - c
    reach_l = c - x_lo

    def even2() -> float:
        left = _quad(lambda x: (x - c) ** 2 * f(x), x_lo, c,
                     [x_peak], epsrel) if x_lo < c else 0.0
        right = _quad(lambda x: (x - c) ** 2 * f(x), c, x_hi,
                      [x_peak], epsrel) if c < x_hi else 0.0
        return (left + right) / z

    m2 = even2()
    sig = math.sqrt(m2) if m2 > 0.0 else 0.0

    def odd_moment(power: int) -> float:
        # exp(B) expm1(A - B) keeps the error of the difference proportional
        # to the local density, not to the peak, so the u^power weight cannot
        # amplify float noise from the window fringes
        def g(u: float) -> float:
            A = L(c + u) - M if u <= reach_r else -math.inf
            B = L(c - u) - M if u <= reach_l else -math.inf
            if B == -math.inf:
                diff = math.exp(A)
            elif A == -math.inf:
                diff = -math.exp(B)
            else:
                diff = math.exp(B) * math.expm1(A - B)
            return u ** power * diff

        # breakpoints: the reflected peak, and the point where the shorter
        # branch runs off its end of the window (g kinks there); the
        # integral itself vanishes for near-symmetric laws, so the noise
        # floor must be absolute, scaled like the moment
        return _quad(g, 0.0, max(reach_r, reach_l),
                     [abs(x_peak - c), min(reach_r, reach_l)],
                     epsrel, epsabs=noise * z * sig ** power) / z

    m1 = odd_moment(1)   # true mean minus c, free of half-cancellation
    m3 = odd_moment(3)
    mean = c + m1
    var = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3
    if not (var > 0.0 and math.isfinite(var)):
        raise NumericalError("non-positive variance from moment quadrature")
    return LogMoments(log_z=M + math.log(z), mean=mean, var=var, mu3=mu3)


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
