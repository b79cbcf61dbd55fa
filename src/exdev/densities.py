"""Light-tailed densities on the half line.

A density here is p(x) = c * exp(-g(x)) for x >= 0, with g smooth,
superlinear (g(x)/x -> infinity) and eventually convex.  The paper's two
regularity classes are read off the terms (`LightTailDensity.tail_index`):

  * Beta(beta):  h(x) = x^beta * l(x) with l slowly varying; with no exp
                 term, beta + 1 is the largest power exponent of g;
  * Infinity:    h grows faster than any power (an exp term); the inverse
                 psi = h^{-1} is slowly varying.

The class conditions are not checked; a term list whose g is not
superlinear (no exp term, and the largest power exponent at most 1 or its
summed coefficient not positive) is refused.

Construction is factory-based: the normalizer c is always computed, by the
same centered trapezoid (`quadrature.moments`) that gives the tilted
cumulants, never taken on trust, so closed-form cases double as accuracy
anchors for tests.

g, g' and g'' have two evaluation paths through the term catalog: the array
path (`LightTailDensity.g`, `g_prime`, `g_second`) and the scalar path
(`g_scalar`, `g_prime_scalar` and the pair `h_pair` = (g', g'')) that the
root solver's callbacks run once per float.  The scalar path calls the same
numpy ufuncs on each term, so its values equal the array path's bit for
bit, x = 0 and exp overflow included.

`LightTailDensity.excess(x0, delta)` is g(x0 + delta) - g(x0) - g'(x0) delta
on an array of offsets, each term's share formed without cancellation, so
the tilted exponent about its peak keeps its digits however large t x is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .errors import (
    DomainError,
    NonMonotone,
    OutOfRange,
    ValidationError,
)

__all__ = [
    "GTerm", "PowerTerm", "LogTerm", "ExpTerm", "LightTailDensity",
    "density_from_terms", "weibull", "double_exp", "psi", "psi_derivatives",
]

# left end of the regular region: psi is defined on h(x) >= h(X_MIN_REGULAR)
X_MIN_REGULAR = 1.0
PSI_REL_TOL = 1e-10

# GTerm.excess sums the Taylor series through SERIES_ORDER where its
# argument is below SERIES_BELOW in size: there expm1 or log1p minus its
# linear part would cancel, and the series' first omitted term is below
# 1e-16 of its leading one
SERIES_BELOW = 1e-2
SERIES_ORDER = 10
# GTerm.scalar's picks, in derivative order
PICKS = ("value", "d1", "d2")


# ---------------------------------------------------------------------------
# exponent catalog: g as a sum of power, log and exponential terms


@dataclass(frozen=True)
class GTerm:
    def value(self, x): raise NotImplementedError
    def d1(self, x): raise NotImplementedError
    def d2(self, x): raise NotImplementedError
    def d3(self, x): raise NotImplementedError

    def scalar(self, pick: str) -> Callable[[float], float]:
        """float -> float form of value ("value"), d1 ("d1") or d2 ("d2")."""
        raise NotImplementedError

    def excess(self, x0: float, delta: np.ndarray) -> np.ndarray:
        """value(x0 + delta) - value(x0) - d1(x0) delta, for x0 > 0 and
        x0 + delta >= 0, without cancellation."""
        raise NotImplementedError


def _series(a: np.ndarray, coefs) -> np.ndarray:
    """sum_k coefs[k - 2] a^k over k = 2..SERIES_ORDER (Horner)."""
    out = coefs[-1]
    for c in coefs[-2::-1]:
        out = out * a + c
    return out * a * a


def _excess(a: np.ndarray, coefs, far: Callable) -> np.ndarray:
    """far(a) where |a| >= SERIES_BELOW, else _series(a, coefs); each
    branch runs on its own elements only."""
    near = np.abs(a) < SERIES_BELOW
    if near.all():
        return _series(a, coefs)
    if not near.any():
        return far(a)
    out = np.empty_like(a)
    out[near] = _series(a[near], coefs)
    rest = ~near
    out[rest] = far(a[rest])
    return out


# the series coefficients of log1p(a) - a and expm1(a) - a
_LOG_SERIES = [(-1.0) ** (k + 1) / k for k in range(2, SERIES_ORDER + 1)]
_EXP_SERIES = [1.0 / math.factorial(k) for k in range(2, SERIES_ORDER + 1)]


@dataclass(frozen=True)
class PowerTerm(GTerm):
    """coef * x**exponent, exponent > 0."""

    coef: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValidationError("power term needs a positive exponent")

    # np.power, not **: older numpy sends ndarray ** 2.0 (or 0.5) to
    # np.square (np.sqrt), which np.power on a float, the scalar path, is not
    def value(self, x): return self.coef * np.power(x, self.exponent)

    def d1(self, x):
        return self.coef * self.exponent * np.power(x, self.exponent - 1.0)

    def d2(self, x):
        p = self.exponent
        return self.coef * p * (p - 1.0) * np.power(x, p - 2.0)

    def d3(self, x):
        p = self.exponent
        return self.coef * p * (p - 1.0) * (p - 2.0) * np.power(x, p - 3.0)

    def scalar(self, pick):
        c, p, n = self.coef, self.exponent, PICKS.index(pick)
        for k in range(n):
            c = c * (p - k)
        return lambda x: c * float(np.power(x, p - n))

    @cached_property
    def _binomials(self) -> list:
        """C(p, k) for k = 2..SERIES_ORDER."""
        p, out, c = self.exponent, [], self.exponent
        for k in range(2, SERIES_ORDER + 1):
            c *= (p - k + 1.0) / k
            out.append(c)
        return out

    def excess(self, x0, delta):
        # x0^p ((1 + u)^p - 1 - p u), u = delta / x0
        p, u = self.exponent, delta / x0
        return self.coef * x0 ** p * _excess(
            u, self._binomials, lambda v: np.expm1(p * np.log1p(v)) - p * v)


@dataclass(frozen=True)
class LogTerm(GTerm):
    """coef * log(x)."""

    coef: float

    def value(self, x): return self.coef * np.log(x)
    def d1(self, x): return self.coef / x
    def d2(self, x): return -self.coef / x ** 2
    def d3(self, x): return 2.0 * self.coef / x ** 3

    def scalar(self, pick):
        c = self.coef
        # log 0 and c / 0 take the array path, whose errstate keeps numpy's
        # -inf and +-inf without a warning
        at_zero = lambda x: float(_sum_terms((self,), pick, x))
        if pick == "value":
            return lambda x: c * float(np.log(x)) if x != 0.0 else at_zero(x)
        if pick == "d2":
            # the array path's x ** 2 is np.square: x * x, which may be 0
            return lambda x: -c / (x * x) if x * x != 0.0 else at_zero(x)
        return lambda x: c / x if x != 0.0 else at_zero(x)

    def excess(self, x0, delta):
        # log1p(u) - u, u = delta / x0; -inf at x0 + delta = 0
        return self.coef * _excess(delta / x0, _LOG_SERIES,
                                   lambda v: np.log1p(v) - v)


@dataclass(frozen=True)
class ExpTerm(GTerm):
    """coef * exp(rate * x), coef > 0, rate > 0."""

    coef: float
    rate: float

    def __post_init__(self):
        if self.coef <= 0 or self.rate <= 0:
            raise ValidationError("exp term needs positive coef and rate")

    def value(self, x): return self.coef * np.exp(self.rate * x)
    def d1(self, x): return self.coef * self.rate * np.exp(self.rate * x)
    def d2(self, x): return self.coef * self.rate ** 2 * np.exp(self.rate * x)
    def d3(self, x): return self.coef * self.rate ** 3 * np.exp(self.rate * x)

    def scalar(self, pick):
        c, r = self.coef * self.rate ** PICKS.index(pick), self.rate
        return lambda x: c * float(np.exp(r * x))

    def excess(self, x0, delta):
        # e^{r x0} (expm1(r delta) - r delta)
        return (self.coef * math.exp(self.rate * x0)
                * _excess(self.rate * delta, _EXP_SERIES,
                          lambda v: np.expm1(v) - v))


def _add_terms(terms: Sequence[GTerm], pick: str, x: np.ndarray):
    """Sum of term.<pick>(x) over the catalog, in catalog order, for a float
    array x.  The caller holds np.errstate(divide="ignore"): log 0 and
    negative powers of 0 are -inf and +inf, not warnings."""
    out = getattr(terms[0], pick)(x)
    for t in terms[1:]:
        out = out + getattr(t, pick)(x)
    return out


def _sum_terms(terms: Sequence[GTerm], pick: str, x):
    """Sum of term.<pick>(x) over the catalog for any array-like x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return _add_terms(terms, pick, x)


def _scalar_sum(terms: Sequence[GTerm], pick: str) -> Callable[[float], float]:
    """float -> float sum of term.<pick> over the catalog, in catalog order;
    equal to float(_sum_terms(terms, pick, x)) bit for bit."""
    first, *rest = [t.scalar(pick) for t in terms]
    if not rest:
        return first

    def total(x: float) -> float:
        out = first(x)
        for f in rest:
            out = out + f(x)
        return out

    return total


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LightTailDensity:
    """Immutable density model; safe to share across threads.

    g is the sum of the term catalog `terms`; g and its first three
    derivatives are vectorized on x > 0, and g_scalar / g_prime_scalar /
    h_pair are the same g, g' and (g', g'') on one float.  log_c is the
    log normalizer, computed by the moment trapezoid.
    """

    terms: tuple[GTerm, ...]
    log_c: float
    name: str = "custom"

    def g(self, x):
        return _sum_terms(self.terms, "value", x)

    def g_prime(self, x):
        return _sum_terms(self.terms, "d1", x)

    def g_second(self, x):
        return _sum_terms(self.terms, "d2", x)

    def g_third(self, x):
        return _sum_terms(self.terms, "d3", x)

    def excess(self, x0: float, delta) -> np.ndarray:
        """g(x0 + delta) - g(x0) - g'(x0) delta on a float array delta, for
        x0 > 0 and x0 + delta >= 0, summed over the catalog in its order;
        +-inf where a log term meets 0, as log does."""
        delta = np.asarray(delta, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self.terms[0].excess(x0, delta)
            for t in self.terms[1:]:
                out = out + t.excess(x0, delta)
        return out

    @property
    def tail_index(self) -> Optional[float]:
        """k with h(x) = x^(k-1) l(x), l slowly varying (class Beta(k - 1)):
        the largest power exponent of g.  None when an exp term makes h
        rapidly varying (class Infinity)."""
        if any(isinstance(t, ExpTerm) for t in self.terms):
            return None
        return max(t.exponent for t in self.terms if isinstance(t, PowerTerm))

    @cached_property
    def g_scalar(self) -> Callable[[float], float]:
        return _scalar_sum(self.terms, "value")

    @cached_property
    def g_prime_scalar(self) -> Callable[[float], float]:
        return _scalar_sum(self.terms, "d1")

    @cached_property
    def h_pair(self) -> Callable[[float], tuple[float, float]]:
        """x -> (g'(x), g''(x)) on one float, the root solver's callback."""
        d1, d2 = self.g_prime_scalar, _scalar_sum(self.terms, "d2")
        return lambda x: (d1(x), d2(x))

    # h is the name the tilting layer uses for the exponent slope: h := g'
    h = g_prime
    h_prime = g_second

    def centered(self, t: float):
        """x0 -> (L(x0), E) for L(x) = t x - g(x), with E(delta) =
        L(x0 + delta) - L(x0) = (t - g'(x0)) delta - excess on float
        arrays; quadrature.moments' `centered`."""
        def centered(x0: float):
            slope = t - self.g_prime_scalar(x0)
            return (t * x0 - self.g_scalar(x0),
                    lambda delta: slope * delta - self.excess(x0, delta))

        return centered

    def log_pdf(self, x):
        return log_density(x, lambda x: self.log_c - self.g(x))

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"LightTailDensity({self.name})"


def log_density(x, log_f: Callable[[np.ndarray], np.ndarray]):
    """log_f on the float array of x, NaN read as -inf (a 0-d result as a
    scalar): a log density on x >= 0.  Raises DomainError where x < 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("density is supported on x >= 0")
    with np.errstate(invalid="ignore"):
        out = log_f(x)
    out = np.where(np.isnan(out), -np.inf, out)
    return out[()] if out.ndim == 0 else out


def density_from_terms(terms: Sequence[GTerm], *,
                       name: str = "custom") -> LightTailDensity:
    """Density with g = sum of terms, its normalizer computed by the moment
    trapezoid at t = 0.  Raises ValidationError unless g is superlinear: an
    exp term, or a largest power exponent above 1 whose summed coefficient
    is positive."""
    terms = tuple(terms)
    if not terms:
        raise ValidationError("empty exponent catalog")
    if not any(isinstance(t, ExpTerm) for t in terms):
        powers = [t for t in terms if isinstance(t, PowerTerm)]
        top = max((t.exponent for t in powers), default=0.0)
        if not (top > 1.0 and sum(t.coef for t in powers
                                  if t.exponent == top) > 0.0):
            raise ValidationError(
                "exponent g is not light-tailed: it needs an exp term or a "
                "leading power term x^p with p > 1 and a positive coefficient")
    d = LightTailDensity(terms=terms, log_c=0.0, name=name)
    mom = quadrature.moments(d.h_pair, 0.0, d.centered(0.0),
                             X_MIN_REGULAR)
    return replace(d, log_c=-mom.log_z)


def weibull(k: float) -> LightTailDensity:
    """p(x) = k x^(k-1) exp(-x^k): exponent g(x) = x^k - (k-1) log x.

    h(x) = k x^(k-1) - (k-1)/x is increasing on (0, inf) for k > 1, so the
    tilt equation h(x) = t has a root for every real t.  Its tail index is
    k: class Beta(k-1).
    """
    if not k > 1.0:
        raise ValidationError("weibull shape must exceed 1")
    return density_from_terms((PowerTerm(1.0, k), LogTerm(1.0 - k)),
                              name=f"weibull_k{k:g}")


def double_exp() -> LightTailDensity:
    """p(x) = c exp(-e^(x-1)): g = h = e^(x-1), rapidly varying class.

    psi(u) = 1 + log u on the regular region u >= h(1) = 1, which the tests
    use as an oracle for the solved psi.
    """
    return density_from_terms((ExpTerm(math.exp(-1.0), 1.0),),
                              name="double_exp")


# ---------------------------------------------------------------------------
# inverse of h


def _psi_scalar(d: LightTailDensity, u: float) -> float:
    h = d.g_prime_scalar
    lo = X_MIN_REGULAR
    h_lo = h(lo)
    if u < h_lo - abs(h_lo) * 1e-12 - 1e-300:
        raise OutOfRange(
            f"u={u!r} below h(X_MIN_REGULAR)={h_lo!r}; psi is defined on the "
            "regular region only")
    if u <= h_lo:
        return lo
    root = quadrature.exponent_peak(d.h_pair, u, lo)
    if abs(h(root) - u) > PSI_REL_TOL * max(abs(u), 1.0):
        raise NonMonotone("psi root did not meet the residual tolerance")
    return root


def psi(d: LightTailDensity, u):
    """Generalized inverse of h on the regular region: inf{x : h(x) >= u}.

    Defined for u >= h(X_MIN_REGULAR), for every density (OutOfRange
    below).  Solves h(x) = u with quadrature.exponent_peak probing from
    X_MIN_REGULAR, the call quadrature.moments makes, so psi(t) is the peak
    the tilted cumulants at t integrate around.
    """
    u_arr = np.asarray(u, dtype=float)
    out = np.empty(u_arr.shape, dtype=float)
    for idx, val in np.ndenumerate(u_arr):
        out[idx] = _psi_scalar(d, float(val))
    return out[()] if out.ndim == 0 else out


def psi_derivatives(d: LightTailDensity, u):
    """(psi, psi', psi'') at u from one solve of h(x) = u:
    psi'(u) = 1/h'(psi(u)) and psi''(u) = -h''(psi(u))/h'(psi(u))^3."""
    x = psi(d, u)
    h1 = np.asarray(d.g_second(x), dtype=float)
    h2 = np.asarray(d.g_third(x), dtype=float)
    return x, (1.0 / h1)[()], (-h2 / h1 ** 3)[()]
