"""Scalar-constraint tilting in product ambient spaces: laws of f(X) for a
small catalog of f, the tilted law e^{t f(x)} p(x)/phi_f(t), exact iid draws
from it, and level-set / concentration experiments.

Everything reduces to scalar machinery: for each supported (f, ambient)
pairing the law of Z = f(X) is rebuilt as a one-dimensional light-tailed
density (possibly iid-summed over coordinates), so the tilt parameter comes
from the same m(t) = a inversion used on the line.  No multivariate cumulant
work is done anywhere.

Every catalog f is a sum c_j h(x_j) over the coordinates, so the f-tilted law
is the product of the scalar laws of h(X_j) tilted at c_j t.  Draws come from
the guide-table sampler of each factor and are mapped back through h (a
square root for sumsq) with a fair sign on even marginals.  The random-walk
Metropolis sampler `mh_sample` is kept as an independent cross-check.

The signed square-root marginal is the even density |x| q(x^2) on R whose
square has law q; with f(x) = sum x_j^2 this is the setting where the tilted
coordinates pile up near +-sqrt(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .densities import (LightTailDensity, LogTerm, PowerTerm,
                        density_from_terms)
from .errors import DomainError, NotSolvable, PushforwardUnsolvable
from .quadrature import solve_increasing
from .tilting import REL_TOL, T_CAP, cumulants, invert_m
from .conditional import DLPWindow, epsilon_schedule

__all__ = [
    "Marginal1D", "AmbientLaw", "FSpec", "FTiltedLaw", "PushforwardModel",
    "LevelSetResult", "SquareConcentrationReport", "signed_sqrt_marginal",
    "positive_marginal", "product_ambient", "f_catalog", "pushforward_model",
    "f_tilted_density", "mh_sample", "level_set_sampler",
    "square_concentration_check",
]


# ---------------------------------------------------------------------------
# ambient laws

@dataclass(frozen=True, eq=False)
class Marginal1D:
    """One coordinate's law: the base density on R+, or its signed square
    root |x| q(x^2) on R (even, normalized for free)."""

    kind: str  # "positive" | "signed_sqrt"
    base: LightTailDensity

    def __post_init__(self):
        if self.kind not in ("positive", "signed_sqrt"):
            raise DomainError(f"unknown marginal kind {self.kind!r}")

    @property
    def even(self) -> bool:
        return self.kind == "signed_sqrt"

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "positive":
            if np.any(x < 0.0):  # outside the support: zero density
                return np.where(x < 0.0, -np.inf,
                                self.base.log_pdf(np.abs(x)))
            return self.base.log_pdf(x)
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            out = np.log(ax) + self.base.log_pdf(ax * ax)
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


def positive_marginal(base: LightTailDensity) -> Marginal1D:
    return Marginal1D("positive", base)


def signed_sqrt_marginal(base: LightTailDensity) -> Marginal1D:
    return Marginal1D("signed_sqrt", base)


@dataclass(frozen=True, eq=False)
class AmbientLaw:
    """Product of iid-or-not one-dimensional marginals."""

    marginals: tuple

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def all_even(self) -> bool:
        return all(m.even for m in self.marginals)

    @property
    def iid(self) -> bool:
        return all(m is self.marginals[0] for m in self.marginals)

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for j, marg in enumerate(self.marginals):
            out += marg.log_pdf(points[:, j])
        return out


def product_ambient(marginal: Marginal1D, dim: int) -> AmbientLaw:
    if dim < 1:
        raise DomainError("ambient dimension must be >= 1")
    return AmbientLaw(marginals=(marginal,) * dim)


# ---------------------------------------------------------------------------
# constraint catalog

@dataclass(frozen=True)
class FSpec:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]  # (N, dim) -> (N,)
    coefs: Optional[np.ndarray] = None      # linear only


def f_catalog(name: str, dim: int,
              coefs: Optional[Sequence[float]] = None) -> FSpec:
    """identity | sumsq | norm2 | linear (linear takes positive coefs,
    default all ones)."""
    if name == "identity":
        if dim != 1:
            raise DomainError("identity constraint is one-dimensional")
        return FSpec("identity", lambda pts: pts[:, 0])
    if name == "sumsq":
        return FSpec("sumsq", lambda pts: (pts * pts).sum(axis=1))
    if name == "norm2":
        return FSpec("norm2", lambda pts: np.sqrt((pts * pts).sum(axis=1)))
    if name == "linear":
        c = np.ones(dim) if coefs is None else np.asarray(coefs, dtype=float)
        if c.shape != (dim,) or np.any(c <= 0.0):
            raise DomainError("linear constraint needs dim positive coefs")
        return FSpec("linear", lambda pts, c=c: pts @ c, coefs=c)
    raise DomainError(f"unknown constraint {name!r}")


# ---------------------------------------------------------------------------
# pushforward of the ambient law through f, reduced to scalar densities

def _power_law(base: LightTailDensity, r: float) -> LightTailDensity:
    """Law of Y^r when Y ~ base, via term surgery on the exponent.

    Z = Y^r has density p(z^(1/r)) z^(1/r - 1) / r, so each power exponent
    and log coefficient of g is divided by r and the Jacobian adds
    (1 - 1/r) log z.
    """
    terms = []
    log_coef = 1.0 - 1.0 / r
    for t in base.terms:
        if isinstance(t, PowerTerm):
            terms.append(PowerTerm(t.coef, t.exponent / r))
        elif isinstance(t, LogTerm):
            log_coef += t.coef / r
        else:
            raise PushforwardUnsolvable(
                f"law of Y^{r:g} undefined for exponential exponent terms")
    if not terms or max(t.exponent for t in terms) <= 1.0:
        raise PushforwardUnsolvable(
            f"law of Y^{r:g} is not light-tailed: leading exponent <= 1")
    if log_coef:
        terms.append(LogTerm(log_coef))
    return density_from_terms(terms, name=f"pow{r:g}_of_{base.name}")


@dataclass(frozen=True, eq=False)
class PushforwardModel:
    """Scalar reduction of the law of f(X): Z = sum_j coefs[j] * Y_j over iid
    copies Y_j of `scalar`."""

    scalar: LightTailDensity
    coefs: np.ndarray

    def log_phi(self, t: float) -> float:
        return sum(cumulants(self.scalar, float(c * t)).log_phi
                   for c in self.coefs)

    def m(self, t: float) -> float:
        return sum(float(c) * cumulants(self.scalar, float(c * t)).m
                   for c in self.coefs)

    def s2(self, t: float) -> float:
        return sum(float(c) ** 2 * cumulants(self.scalar, float(c * t)).s2
                   for c in self.coefs)

    def solve(self, a: float) -> float:
        """t with m(t) = a."""
        m0 = self.m(0.0)
        if a <= m0:
            raise NotSolvable(
                f"level {a!r} lies at or below the mean of f, {m0!r}")
        scale = float(self.coefs.sum())
        t0 = invert_m(self.scalar, a / scale).t / float(self.coefs.max())
        return solve_increasing(lambda t: (self.m(t), self.s2(t)), a,
                                max(t0, 1e-6), lo=0.0,
                                at_lo=(m0, self.s2(0.0)), x_max=T_CAP,
                                rtol=REL_TOL)


def pushforward_model(ambient: AmbientLaw, f: FSpec) -> PushforwardModel:
    """Scalar model of the law of f(X) under the ambient product law.

    Supported pairings and their reductions:
      identity on one positive coordinate  -> the base law itself;
      sumsq over signed-sqrt coordinates   -> sum of iid base laws;
      sumsq over positive coordinates      -> sum of iid squared laws;
      norm2 on one coordinate              -> sqrt law (signed-sqrt: base on
                                              |x|, i.e. sqrt of base);
      linear over positive coordinates     -> coef-weighted combination.
    Anything else raises PushforwardUnsolvable.
    """
    if not ambient.iid:
        raise PushforwardUnsolvable("only iid product ambients are reduced")
    marg = ambient.marginals[0]
    ones = np.ones(ambient.dim)
    if f.name == "identity":
        if marg.kind != "positive":
            raise PushforwardUnsolvable(
                "identity on a signed marginal has a two-sided law")
        return PushforwardModel(scalar=marg.base, coefs=ones)
    if f.name == "sumsq":
        if marg.kind == "signed_sqrt":
            return PushforwardModel(scalar=marg.base, coefs=ones)
        return PushforwardModel(scalar=_power_law(marg.base, 2.0), coefs=ones)
    if f.name == "norm2":
        if ambient.dim != 1:
            raise PushforwardUnsolvable(
                "norm2 reduces to one dimension only; use sumsq and take "
                "square roots downstream")
        if marg.kind == "signed_sqrt":
            return PushforwardModel(scalar=_power_law(marg.base, 0.5),
                                    coefs=ones)
        # norm of one positive coordinate is the coordinate itself
        return PushforwardModel(scalar=marg.base, coefs=ones)
    if f.name == "linear":
        if marg.kind != "positive":
            raise PushforwardUnsolvable(
                "linear combinations of signed marginals are two-sided")
        coefs = f.coefs if f.coefs is not None else ones
        return PushforwardModel(scalar=marg.base, coefs=coefs)
    raise PushforwardUnsolvable(f"no reduction for constraint {f.name!r}")


# ---------------------------------------------------------------------------
# the f-tilted law and its sampler

@dataclass(frozen=True, eq=False)
class FTiltedLaw:
    """x -> e^{t f(x)} p(x) / phi_f(t), with m_f(t) = a."""

    ambient: AmbientLaw
    f: FSpec
    a: float
    t: float
    log_phi_f: float
    model: PushforwardModel

    @property
    def s2_f(self) -> float:
        return self.model.s2(self.t)

    def log_density(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (self.t * self.f.fn(points) + self.ambient.log_pdf(points)
                - self.log_phi_f)


def f_tilted_density(ambient, f, a: float) -> FTiltedLaw:
    """Tilt the ambient law so that the mean of f(X) equals a.

    ambient may be an AmbientLaw or a bare LightTailDensity (wrapped as a
    one-dimensional positive marginal); f may be an FSpec or a catalog name.
    """
    if isinstance(ambient, LightTailDensity):
        ambient = product_ambient(positive_marginal(ambient), 1)
    if isinstance(f, str):
        f = f_catalog(f, ambient.dim)
    model = pushforward_model(ambient, f)
    t = model.solve(a)
    return FTiltedLaw(ambient=ambient, f=f, a=a, t=t,
                      log_phi_f=model.log_phi(t), model=model)


def _init_state(law: FTiltedLaw, chains: int,
                rng: np.random.Generator) -> np.ndarray:
    """Start on (or near) the level set {f = a}, split evenly over axes."""
    d = law.ambient.dim
    a = law.a
    if law.f.name == "identity":
        base = np.full((chains, 1), a)
    elif law.f.name == "sumsq":
        base = np.full((chains, d), math.sqrt(a / d))
    elif law.f.name == "norm2":
        base = np.full((chains, d), a / math.sqrt(d))
    else:
        c = law.f.coefs
        base = np.tile(a * c / (c @ c), (chains, 1))
    if law.ambient.all_even:
        signs = rng.integers(0, 2, size=base.shape) * 2 - 1
        base = base * signs
    return base


# Metropolis thinning, and the share of sign-flip moves on even marginals
MH_THIN = 5
SIGN_FLIP_PROB = 0.2


def mh_sample(law: FTiltedLaw, count: int, seed: int = 0, chains: int = 256,
              burn: int = 2000):
    """Random-walk Metropolis draws from the f-tilted law, the independent
    cross-check of the exact sampler.

    Step size adapts toward 0.234 random-walk acceptance during burn-in;
    every MH_THIN-th state after it is kept.  For even product marginals a
    coordinate sign-flip move is mixed in, which hops between the mirrored
    modes without touching the radial profile; flips are always accepted, so
    they count neither in the adaptation nor in the returned rate.
    Returns (points (count, dim), f_values, random-walk acceptance rate).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    d = law.ambient.dim
    x = _init_state(law, chains, rng)
    lp = law.log_density(x)
    scale = 0.5 * math.sqrt(law.s2_f) / (1.0 + math.sqrt(abs(law.a)))
    scale = max(scale, 1e-3)
    even = law.ambient.all_even
    accepted = 0
    proposed = 0
    keep = []
    needed = max(1, math.ceil(count / chains))
    total = burn + needed * MH_THIN
    for step in range(total):
        flip = even and rng.random() < SIGN_FLIP_PROB
        if flip:
            j = int(rng.integers(d))
            prop = x.copy()
            prop[:, j] = -prop[:, j]
        else:
            prop = x + scale * rng.standard_normal(x.shape)
        lp_prop = law.log_density(prop)
        logu = np.log(rng.random(chains))
        acc = logu < (lp_prop - lp)
        x[acc] = prop[acc]
        lp[acc] = lp_prop[acc]
        if not flip:
            accepted += int(acc.sum())
            proposed += chains
        if step < burn and (step + 1) % 50 == 0 and proposed:
            rate = accepted / proposed
            scale *= math.exp(1.0 * (rate - 0.234))
            scale = min(max(scale, 1e-6), 1e3)
            accepted = 0
            proposed = 0
        if step >= burn and (step - burn + 1) % MH_THIN == 0:
            keep.append(x.copy())
    pts = np.concatenate(keep, axis=0)[:count]
    fv = law.f.fn(pts)
    rate = accepted / max(proposed, 1)
    return pts, fv, rate


def _exact_sample(law: FTiltedLaw, count: int, rng: np.random.Generator):
    """count iid draws from the f-tilted law as the product of its scalar
    factors: h(X_j) ~ model.scalar tilted at c_j t, with h(x) = x^2 for
    sumsq and x (or |x|) otherwise.  Returns (points (count, dim),
    f_values)."""
    from .tails import sampler_tilted  # call-time lookup, no module import
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    model = law.model
    coefs = model.coefs
    w = np.empty((count, coefs.size))
    for c in np.unique(coefs):
        cols = np.flatnonzero(coefs == c)
        table = sampler_tilted(cumulants(model.scalar, float(c * law.t)))
        w[:, cols] = table.sample(count * cols.size, rng).reshape(
            count, cols.size)
    pts = np.sqrt(w, out=w) if law.f.name == "sumsq" else w
    if law.ambient.all_even:
        pts[rng.random(pts.shape) < 0.5] *= -1.0
    return pts, law.f.fn(pts)


# ---------------------------------------------------------------------------
# level-set experiment

@dataclass(frozen=True, eq=False)
class LevelSetResult:
    points: np.ndarray
    f_values: np.ndarray
    hit_fraction: float
    window: Optional[DLPWindow]
    t: float
    acceptance: float


def level_set_sampler(ambient, f, a: float, count: int, seed: int = 0,
                      window: Optional[DLPWindow] = None,
                      chains: int = 256) -> LevelSetResult:
    """Stochastic level-set approximation: exact iid draws from the f-tilted
    law and the fraction landing inside the localization window around a.

    The default window comes from epsilon_schedule on the tail index of the
    reduced scalar law (its largest power exponent), with the ambient
    dimension standing in for n; a scalar law with an exp term (class
    Infinity) has no tail index, so no default window, and hit_fraction is
    NaN.  `chains` is unused (the rows are iid, so there are no chains); it
    stays for callers that pass it.
    """
    law = f_tilted_density(ambient, f, a)
    k_push = law.model.scalar.tail_index
    if window is None and a > math.e and k_push is not None:
        window = epsilon_schedule(k_push, max(2, law.ambient.dim), a)
    pts, fv = _exact_sample(law, count, np.random.default_rng(seed))
    if window is not None:
        lo, hi = window.window
        hit = float(np.mean((fv > lo) & (fv < hi)))
    else:
        hit = float("nan")
    return LevelSetResult(points=pts, f_values=fv, hit_fraction=hit,
                          window=window, t=law.t, acceptance=1.0)


# ---------------------------------------------------------------------------
# plus/minus sqrt(a) concentration

@dataclass(frozen=True, eq=False)
class SquareConcentrationReport:
    a: np.ndarray
    spread: np.ndarray          # std of |x| - sqrt(a)
    predicted: np.ndarray       # s_Y(t) / (2 sqrt(a))
    sign_balance: np.ndarray    # fraction of positive-coordinate draws
    t: np.ndarray

    @property
    def spread_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.spread) < 0.0))


def square_concentration_check(base: LightTailDensity, a_list,
                               count: int = 60000,
                               seed: int = 0) -> SquareConcentrationReport:
    """Tilt f(x) = x^2 on the signed-sqrt ambient of `base` at each level.

    |X| should pile up at sqrt(a) with spread ~ s_Y(t)/(2 sqrt(a)), and the
    signs should stay balanced (each draw's sign is a fair coin).
    """
    a_arr = np.atleast_1d(np.asarray(a_list, dtype=float))
    ambient = product_ambient(signed_sqrt_marginal(base), 1)
    spreads, preds, balances, ts = [], [], [], []
    for i, a in enumerate(a_arr):
        law = f_tilted_density(ambient, "sumsq", float(a))
        pts, _ = _exact_sample(law, count,
                               np.random.default_rng(seed + 977 * i))
        dev = np.abs(pts[:, 0]) - math.sqrt(a)
        spreads.append(float(dev.std()))
        preds.append(math.sqrt(law.s2_f) / (2.0 * math.sqrt(a)))
        balances.append(float(np.mean(pts[:, 0] > 0.0)))
        ts.append(law.t)
    return SquareConcentrationReport(a=a_arr, spread=np.array(spreads),
                                     predicted=np.array(preds),
                                     sign_balance=np.array(balances),
                                     t=np.array(ts))
