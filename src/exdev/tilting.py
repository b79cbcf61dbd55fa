"""Exponential tilting and cumulant asymptotics.

The tilted family is pi_t(x) = exp(t*x) p(x) / phi(t).  Its mean m(t),
variance s2(t) and third central moment mu3(t) are computed as moments of
the tilted density itself by quadrature.moments, never by finite-differencing
log phi; finite differences exist only as cross-checks in the test suite.
The tilted exponent enters as its centered form about x0: (t - g'(x0)) delta
minus each term's excess g_i(x0 + delta) - g_i(x0) - g_i'(x0) delta
(`LightTailDensity.centered`), so the cumulants keep their digits where t*x is
huge, and so does the density, E(x - x0) minus the rule's centered log-mass
(`TiltedDensity.log_pdf`), which the sampler table and every pdf read.  For
large t the comparison scale is the inverse function psi = h^{-1}: m ~ psi,
s2 ~ psi', with the third-moment ratio recorded against the reference
constant (M6-3)/2 as a diagnostic.

The peak equation h(x) = t runs on the scalar (g', g'') path (`h_pair`)
and the guess h(a) of invert_m on `g_prime_scalar`; both equal the array
path bit for bit.  The peak and m(t) = a are solved by the one root solver,
`quadrature.solve_increasing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .densities import (X_MIN_REGULAR, LightTailDensity, log_density,
                        psi_derivatives)
from .errors import Divergent, DomainError, NotSolvable, OutOfRange

__all__ = [
    "M6_STANDARD_NORMAL", "TiltedDensity", "AbelianReport", "GrowthReport",
    "log_mgf", "cumulants", "density_mean", "invert_m", "tilt_to_mean",
    "abelian_check", "self_neglect_check", "growth_report",
]

# sixth moment of the standard normal; the reference third-moment constant
# (M6 - 3)/2 = 6 is recorded in reports, not asserted (see AbelianReport).
M6_STANDARD_NORMAL = 15.0
MU3_REFERENCE_CONST = (M6_STANDARD_NORMAL - 3.0) / 2.0

# tilt inversion: relative tolerance on m(t) = a and the largest tilt tried
# (levels above m(T_CAP) are out of range)
REL_TOL = 1e-12
T_CAP = 1e10

# self_neglect_check window, in standardized units, and its point count
NEGLECT_WINDOW = (-3.0, 3.0)
NEGLECT_POINTS = 13


@dataclass(frozen=True, eq=False)
class TiltedDensity:
    """pi(x) = exp(t x) p(x) / phi(t), with its cumulants attached.

    log pi(x) = E(x - x0) - log_mass, E the tilted exponent centered at
    x0, the center of the rule that integrated it (`quadrature.LogMoments`):
    no term of size t x is formed, so the law keeps its digits at any level.

    Immutable; instances can be shared freely across threads.
    """

    base: LightTailDensity
    t: float
    log_phi: float
    m: float
    s2: float
    mu3: float
    x0: float
    log_mass: float

    @property
    def s(self) -> float:
        return math.sqrt(self.s2)

    def log_pdf(self, x):
        E = self.base.centered(self.t)(self.x0)[1]
        return log_density(x, lambda x: E(x - self.x0) - self.log_mass)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def __repr__(self) -> str:
        return f"TiltedDensity({self.base.name}, t={self.t:.6g}, m={self.m:.6g})"


@lru_cache(maxsize=65536)
def _cumulants_cached(d: LightTailDensity, t: float) -> TiltedDensity:
    # d.log_c is minus this rule's log_z at t = 0, so log phi(0) is 0 exactly
    mom = quadrature.moments(d.h_pair, t, d.centered(t),
                             X_MIN_REGULAR)
    return TiltedDensity(base=d, t=t, log_phi=d.log_c + mom.log_z,
                         m=mom.mean, s2=mom.var, mu3=mom.mu3, x0=mom.x0,
                         log_mass=mom.log_mass)


def cumulants(d: LightTailDensity, t: float) -> TiltedDensity:
    """m(t), s2(t), mu3(t) and log phi(t) by tilted-moment quadrature."""
    if not math.isfinite(t):
        raise DomainError("tilt t must be finite")
    return _cumulants_cached(d, float(t))


def log_mgf(d: LightTailDensity, t: float) -> float:
    """log integral exp(t x) p(x) dx, peak-centered; exact 0 at t = 0."""
    return cumulants(d, t).log_phi


def density_mean(d: LightTailDensity) -> float:
    return cumulants(d, 0.0).m


def invert_m(d: LightTailDensity, a: float) -> TiltedDensity:
    """Solve m(t) = a for t >= 0.

    quadrature.solve_increasing on (m, s2 = m') from the guess t0 = h(a),
    exact to leading order at extreme levels.  Raises NotSolvable when a is
    below the base mean and OutOfRange, naming m(T_CAP), when it is above
    m(T_CAP).
    """
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError("target mean must be positive and finite")
    base = cumulants(d, 0.0)
    if a < base.m * (1.0 - 1e-12):
        raise NotSolvable(
            f"target mean {a!r} lies below the unconstrained mean {base.m!r}")
    if abs(a - base.m) <= REL_TOL * abs(a):
        return base

    t0 = d.g_prime_scalar(a)
    if not (math.isfinite(t0) and t0 > 0.0):
        t0 = (a - base.m) / base.s2
    t0 = min(max(t0, 1e-12), T_CAP)

    def m_s2(t: float) -> tuple[float, float]:
        c = cumulants(d, t)
        return c.m, c.s2

    try:
        t = quadrature.solve_increasing(m_s2, a, t0, lo=0.0,
                                        at_lo=(base.m, base.s2),
                                        x_max=T_CAP, rtol=REL_TOL)
    except Divergent:
        raise OutOfRange(
            f"level {a!r} is beyond the largest reachable level "
            f"m(t_cap) = {cumulants(d, T_CAP).m!r} (tilt cap t_cap = "
            f"{T_CAP:g})") from None
    return cumulants(d, t)


def tilt_to_mean(d: LightTailDensity, a: float) -> TiltedDensity:
    """The tilted law whose mean is a (invert_m looked up at call time)."""
    return invert_m(d, a)


# ---------------------------------------------------------------------------
# asymptotic comparison reports

@dataclass(frozen=True)
class AbelianReport:
    """Cumulants against the psi scale on a tilt grid.

    ratio_mu3 compares mu3 to ((M6-3)/2) psi'' = 6 psi''; it is a recorded
    diagnostic only (its empirical limit need not be 1), while ratio_m and
    ratio_s2 are the quantities the asymptotics pin to 1.  growth_core is
    psi(t)^2/psi'(t); dividing by sqrt(n) gives the growth functional for a
    sample size n.
    """

    t: np.ndarray
    m: np.ndarray
    s2: np.ndarray
    mu3: np.ndarray
    psi: np.ndarray
    psi_prime: np.ndarray
    psi_second: np.ndarray
    ratio_m: np.ndarray
    ratio_s2: np.ndarray
    ratio_mu3: np.ndarray
    skew: np.ndarray
    growth_core: np.ndarray

    @property
    def final_m_dev(self) -> float:
        return float(abs(self.ratio_m[-1] - 1.0))

    @property
    def final_s2_dev(self) -> float:
        return float(abs(self.ratio_s2[-1] - 1.0))

    @property
    def max_m_dev(self) -> float:
        return float(np.max(np.abs(self.ratio_m - 1.0)))

    @property
    def max_s2_dev(self) -> float:
        return float(np.max(np.abs(self.ratio_s2 - 1.0)))

    @property
    def final_skew(self) -> float:
        return float(self.skew[-1])

    @property
    def skew_monotone_decreasing(self) -> bool:
        a = np.abs(self.skew)
        return bool(np.all(np.diff(a) < 0.0))

    def rows(self) -> list[dict]:
        cols = ("t", "m", "s2", "mu3", "psi", "psi_prime", "psi_second",
                "ratio_m", "ratio_s2", "ratio_mu3", "skew", "growth_core")
        return [{c: float(getattr(self, c)[i]) for c in cols}
                for i in range(self.t.size)]


def abelian_check(d: LightTailDensity, t_grid) -> AbelianReport:
    """Tilted cumulants vs psi, psi', psi'' on an increasing positive grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DomainError("t_grid must be a 1-d grid with >= 2 points")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
        raise DomainError("t_grid must be positive and strictly increasing")
    cs = [cumulants(d, float(t)) for t in t_grid]
    m = np.array([c.m for c in cs])
    s2 = np.array([c.s2 for c in cs])
    mu3 = np.array([c.mu3 for c in cs])
    ps, p1, p2 = psi_derivatives(d, t_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_mu3 = mu3 / (MU3_REFERENCE_CONST * p2)
    rep = AbelianReport(
        t=t_grid, m=m, s2=s2, mu3=mu3, psi=ps, psi_prime=p1, psi_second=p2,
        ratio_m=m / ps, ratio_s2=s2 / p1, ratio_mu3=ratio_mu3,
        skew=mu3 / s2 ** 1.5, growth_core=ps ** 2 / p1)
    if not np.all(np.isfinite(rep.ratio_m)) or not np.all(np.isfinite(rep.ratio_s2)):
        raise DomainError("non-finite comparison ratios on the grid")
    return rep


def self_neglect_check(d: LightTailDensity, t: float) -> float:
    """sup over u in NEGLECT_WINDOW of |s2(t + u/s(t))/s2(t) - 1|.

    The window is in standardized units; self-neglecting variance means the
    sup tends to 0 as t grows.
    """
    c0 = cumulants(d, t)
    s = c0.s
    worst = 0.0
    for u in np.linspace(*NEGLECT_WINDOW, NEGLECT_POINTS):
        t_shift = t + float(u) / s
        if t_shift <= 0.0:
            raise DomainError(
                f"shifted tilt {t_shift!r} leaves the positive axis; "
                "t too small for this window")
        ratio = cumulants(d, t_shift).s2 / c0.s2
        worst = max(worst, abs(ratio - 1.0))
    return worst


@dataclass(frozen=True)
class GrowthReport:
    """Both printed forms of the extreme-level growth functional at t = m^{-1}(a_n)."""

    n: int
    a_n: float
    t: float
    lemma_form: float    # psi(t)^2 / (sqrt(n) * psi'(t))
    printed_form: float  # psi(t)^2 / sqrt(n * psi'(t))


def growth_report(d: LightTailDensity, n: int, a_n: float) -> GrowthReport:
    if n < 1:
        raise DomainError("n must be >= 1")
    c = invert_m(d, a_n)
    ps, p1, _ = (float(v) for v in psi_derivatives(d, c.t))
    return GrowthReport(
        n=n, a_n=a_n, t=c.t,
        lemma_form=ps ** 2 / (math.sqrt(n) * p1),
        printed_form=ps ** 2 / math.sqrt(n * p1))
