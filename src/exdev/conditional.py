"""Exact conditional Monte Carlo for the point constraint (sum = n a) and the
exceedance constraint (sum >= n a), the checks built on them (marginal total
variation, democratic localization, exceedance/point equivalence), and two
exact laws computed without draws: the local Gibbs ratio and the location law.

Point constraint: a pairwise-Gibbs chain on the simplex slice
{x in R_+^n : sum x = n a}.  Each step picks a pair (i, j), holds c = x_i +
x_j fixed, and redraws x_i from the exact conditional density proportional to
p(u) p(c - u) on (0, c) by one rejection step: the law is symmetric about
c/2, and for convex g its reflection |u - c/2| is log-concave and
decreasing, so a flat-then-tangent envelope bounds it at every level.  The
sampler therefore takes densities whose terms of g are all convex on
(0, inf), at levels where l keeps its digits, and raises DomainError for
any other.  All chains advance in lockstep (one shared pair schedule,
independent heat-bath draws); only the chains whose proposal was rejected
draw again.  The state is held coordinate-major, (n, chains), so a pair's
two coordinates are contiguous rows; a retained state is copied out
chain-major, (chains, n).
A step is a few dozen numpy calls on arrays of one value per chain, so its
cost is per-call overhead, and `_heat_bath_draw` is written to make few
calls.

Exceedance constraint: iid rows from the a-tilted product law, accepted
when the row sum clears n a, reweighted by exp(-t (sum - n a)) to undo the
tilt on the overshoot.  Weights lie in (0, 1], so the effective sample size
is reported rather than assumed.  Rows stream from the tilted table in
cache-sized blocks (`CdfTable.row_blocks`), filled and scanned by WORKERS
threads, each in its own buffer, until `count` of them have cleared the
level; a kept row's summary is copied out, so memory stays a block per
worker plus the sample.  Fewer than one block's rows are consumed and not
needed, and the few blocks filled ahead are dropped.  The tilted draws
form one stream whatever the block size or worker count, so the kept rows
are the first `count` rows of that stream to clear the level.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .densities import (ExpTerm, LightTailDensity, LogTerm, PowerTerm,
                        _add_terms)
from .edgeworth import convolve_oracle, z1_centered
from .errors import (DomainError, InfeasibleStart, LowAcceptance,
                     LowESSWarning, MassTooSmall, ScheduleInfeasible,
                     TooFewSamples)
from .quadrature import moments
from .tilting import TiltedDensity, tilt_to_mean
from .tails import ESS_FLOOR, sampler_tilted

__all__ = [
    "ConditionDescriptor", "ConditionalSample", "TVEstimate", "DLPWindow",
    "DLPEstimate", "SecondOrderReference", "GibbsLocalReport",
    "LocationLawReport", "EquivalenceRow", "EquivalenceReport",
    "sample_point_conditional", "sample_exceedance_conditional",
    "marginal_tv", "gibbs_local_check", "second_order_reference",
    "epsilon_schedule", "dlp_check", "location_law_check",
    "exceedance_vs_point_equivalence",
]


# ---------------------------------------------------------------------------
# descriptors and sample container

@dataclass(frozen=True)
class ConditionDescriptor:
    """What we condition on: S_n = n a (point) or S_n >= n a (exceedance)."""

    kind: str
    n: int
    a_n: float

    def __post_init__(self):
        if self.kind not in ("point", "exceedance"):
            raise DomainError(f"unknown condition kind {self.kind!r}")
        if self.n < 2:
            raise DomainError("conditioning needs n >= 2")
        if not (math.isfinite(self.a_n) and self.a_n > 0.0):
            raise DomainError("a_n must be positive and finite")

    @property
    def level(self) -> float:
        return self.n * self.a_n


@dataclass(frozen=True, eq=False)
class ConditionalSample:
    """Retained conditional draws plus the diagnostics the checks need.

    coords holds the first coordinate of each retained state (point case:
    one row per chain per retained time, time-major).  For the point
    sampler, pooled optionally carries every coordinate of every retained
    state grouped by chain, shape (chains, retained*n); exchangeability makes
    all coordinates share the first-coordinate marginal, so pooling buys
    sample size while the chain stays the bootstrap unit.
    """

    coords: np.ndarray
    sums: np.ndarray
    weights: Optional[np.ndarray] = None
    pooled: Optional[np.ndarray] = None
    mins: Optional[np.ndarray] = None
    maxs: Optional[np.ndarray] = None
    acceptance: Optional[float] = None
    ess: float = 0.0
    residual: float = 0.0
    meta: dict = field(default_factory=dict)

    def tv_blocks(self):
        """(values grouped by resampling unit, shape (units, values per unit);
        the weight of each unit).  A unit is a chain for Gibbs output, whose
        time-major coords are regrouped here, and a row for iid draws."""
        if self.pooled is not None:
            blocks = self.pooled
        elif "chains" in self.meta:
            blocks = self.coords[:, 0].reshape(-1, self.meta["chains"]).T
        else:
            blocks = self.coords[:, :1]
        w = np.ones(blocks.shape[0]) if self.weights is None else self.weights
        return blocks, w

    @classmethod
    def from_values(cls, values, weights=None):
        """Wrap externally drawn values (e.g. iid reference draws) so they
        can ride through marginal_tv."""
        values = np.asarray(values, dtype=float).reshape(-1, 1)
        w = None if weights is None else np.asarray(weights, dtype=float)
        ess = float(values.shape[0]) if w is None else float(
            w.sum() ** 2 / (w ** 2).sum())
        return cls(coords=values, sums=values[:, 0].copy(), weights=w,
                   ess=ess)


# ---------------------------------------------------------------------------
# pairwise-Gibbs point-conditional sampler

def _convex(term) -> bool:
    """Whether a term of g is convex on (0, inf)."""
    if isinstance(term, PowerTerm):
        return term.coef * term.exponent * (term.exponent - 1.0) >= 0.0
    if isinstance(term, LogTerm):
        return term.coef <= 0.0
    return isinstance(term, ExpTerm)


def _heat_bath_draw(d: LightTailDensity, c: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw u ~ p(u) p(c - u) on (0, c) for every chain at once.

    Rejection on the reflection W = |u - c/2|, whose log density l(w) =
    -(g(c/2 + w) + g(c/2 - w)) on [0, c/2) is concave and decreasing for
    convex g.  The envelope is flat at l(0) up to z, then the tangent at w1 =
    min(1/sqrt(g''(c/2)), c/4); both lie above l.  A flat tangent (g'' = 0 on
    the pair's range) leaves the flat piece alone on [0, c/2).

    One errstate covers the draw, every evaluation of g and g' is one call
    on stacked points (both arms of l at once), and the first round runs
    on every chain without gathers.
    """
    terms = d.terms
    with np.errstate(divide="ignore"):
        # per chain: half, z, slope, top = l(0), span = z + envelope mass
        # past z; one gather picks a round's rows
        par = np.empty((5, c.size))
        half, z, slope, top, span = par
        np.multiply(c, 0.5, out=half)
        w1 = np.minimum(1.0 / np.sqrt(_add_terms(terms, "d2", half)),
                        0.5 * half)
        pts = np.empty((3, c.size))
        np.subtract(half, w1, out=pts[0])
        np.add(half, w1, out=pts[1])
        gp = _add_terms(terms, "d1", pts[:2])
        np.subtract(gp[0], gp[1], out=slope)
        flat = slope >= 0.0
        slope[flat] = -1.0
        pts[2] = half
        gv = _add_terms(terms, "value", pts)
        np.multiply(gv[2], -2.0, out=top)
        drop = -(gv[1] + gv[0]) - top
        np.clip(w1 - drop / slope, 0.0, half, out=z)
        z[flat] = half[flat]
        np.add(z, np.expm1(slope * (half - z)) / slope, out=span)

        u, ok = _heat_bath_round(terms, rng, par)
        pending = (~ok).nonzero()[0]
        while pending.size:
            cand, ok = _heat_bath_round(terms, rng, par[:, pending])
            u[pending[ok]] = cand[ok]
            pending = pending[~ok]
    return u


def _heat_bath_round(terms, rng, par):
    """One rejection round of `_heat_bath_draw` on the chains whose rows
    `par` holds: (the proposals, which of them were accepted).  The caller
    holds np.errstate(divide="ignore")."""
    hf, zp, sp, top, span = par
    pos, acc, sign = rng.random((3, hf.size))
    mass = pos * span
    over = mass > zp
    w = np.where(over, zp + np.log1p(sp * (mass - zp)) / sp, mass)
    rise = sp * (w - zp)
    rise[~over] = 0.0
    env = top + rise
    arms = np.empty((2, hf.size))
    np.add(hf, w, out=arms[0])
    np.subtract(hf, w, out=arms[1])
    gv = _add_terms(terms, "value", arms)
    ok = acc < np.exp(-(gv[0] + gv[1]) - env)
    # hf + w where sign < 0.5, else hf - w: w >= 0 and sign - 0.5 is exact,
    # so the copysign is -w below 0.5 and w from 0.5 on
    return hf - np.copysign(w, sign - 0.5), ok


def sample_point_conditional(d: LightTailDensity, cond: ConditionDescriptor,
                             chains: int = 256, steps: Optional[int] = None,
                             burn_in: Optional[int] = None,
                             stride: Optional[int] = None, seed: int = 0,
                             pool_all: bool = False) -> ConditionalSample:
    """Pairwise-Gibbs draws from the law of (X_1..X_n) given sum = n a_n.

    Counts are in pair-steps (one step updates one pair in every chain).
    Defaults: burn-in of 1000 n pair updates, retained states one sweep (n
    steps) apart, 40 retained states.  Every chain starts at the constant
    configuration x_i = a_n, which satisfies the constraint exactly; pair
    moves preserve it to float rounding.
    """
    if cond.kind != "point":
        raise DomainError("point sampler needs a point descriptor")
    if not all(_convex(t) for t in d.terms):
        raise DomainError(
            "the point sampler needs a log-concave pair law: every term of g "
            "convex on (0, inf)")
    n, a = cond.n, cond.a_n
    if d.log_pdf(a) == -math.inf:
        raise InfeasibleStart("density vanishes at the starting level a_n")
    # l(w) - l(0) is a difference of numbers near 2 g(a), so it needs doubles
    # spaced finer than 1e-3 there (double-exp: up to a = 30)
    if np.spacing(abs(2.0 * d.g_scalar(a))) > 1e-3:
        raise DomainError(f"level a_n = {a:g} is past the pair step's "
                          "precision: g(a_n) is too large")
    if stride is None:
        stride = n
    if steps is None:
        steps = 40 * stride
    if burn_in is None:
        burn_in = 1000 * n
    if chains < 1 or steps < stride:
        raise DomainError("need at least one chain and one retained state")

    rng = np.random.default_rng(seed)
    x = np.full((n, chains), float(a))  # coordinate-major: rows are contiguous
    level = n * a

    coords = []
    sums = []
    pooled = [] if pool_all else None
    for step in range(burn_in + steps):
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        c = x[i] + x[j]
        u = _heat_bath_draw(d, c, rng)
        x[i] = u
        np.subtract(c, u, out=x[j])
        k = step - burn_in + 1
        if k > 0 and k % stride == 0:
            # sums over a C-ordered copy: numpy reduces a strided view in
            # another order, which moves the last bits of sums and residual
            state = np.ascontiguousarray(x.T)
            coords.append(state[:, :1].copy())
            sums.append(state.sum(axis=1))
            if pooled is not None:
                pooled.append(state)

    coords_arr = np.concatenate(coords, axis=0)
    sums_arr = np.concatenate(sums)
    residual = float(np.max(np.abs(sums_arr - level)) / level)
    pooled_arr = None
    if pooled is not None:
        # (retained, chains, n) -> (chains, retained*n): chain = bootstrap unit
        stack = np.stack(pooled, axis=0)
        pooled_arr = np.ascontiguousarray(
            stack.transpose(1, 0, 2).reshape(chains, -1))
    return ConditionalSample(
        coords=coords_arr, sums=sums_arr, pooled=pooled_arr,
        ess=float(coords_arr.shape[0]), residual=residual,
        meta={"chains": chains, "steps": steps, "burn_in": burn_in,
              "stride": stride, "retained_states": len(coords)})


# ---------------------------------------------------------------------------
# exceedance sampler

def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# proposal rows drawn before LowAcceptance gives up on a short sample
MAX_PROPOSALS = 400_000_000
# threads filling proposal blocks, one per usable CPU; each holds about 3 MB
# of buffers, so three keep a call's memory under 16 MB
WORKERS = min(usable_cpus(), 3)


def sample_exceedance_conditional(d: LightTailDensity,
                                  cond: ConditionDescriptor, count: int,
                                  seed: int = 0) -> ConditionalSample:
    """Weighted iid draws from the law of (X_1..X_n) given sum >= n a_n.

    Proposes iid rows from the a_n-tilted product law, keeps the first
    `count` rows whose sum clears the level, and weights each kept row by
    exp(-t (sum - level)).  Rows come in blocks of `CdfTable.row_blocks`
    (BLOCK // n rows, in one buffer per worker thread) until `count` rows
    are kept, so fewer than one consumed block's rows are not needed; blocks
    filled ahead and not consumed are dropped.  The draws are one stream of
    the seeded generator whatever the block size or worker count, so the
    sample depends on the seed alone.  `acceptance` is count over the
    proposal rows up to and including the last kept row, also independent
    of the block size; meta["proposals"] counts the rows of the consumed
    blocks.  A running acceptance below 1e-4 (a wrong tilt) or
    MAX_PROPOSALS rows drawn raises LowAcceptance.  Keeps the first
    coordinate of each row, plus per-row min and max so window checks over
    all coordinates need no full states.
    """
    if cond.kind != "exceedance":
        raise DomainError("exceedance sampler needs an exceedance descriptor")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    n, a = cond.n, cond.a_n
    td = tilt_to_mean(d, a)
    table = sampler_tilted(td)
    rng = np.random.default_rng(seed)
    level = n * a

    def scan(block):
        s = block.sum(axis=1)
        hit = np.flatnonzero(s >= level)
        kept = block[hit]
        return (block.shape[0], hit, s[hit], kept[:, :1].copy(),
                kept.min(axis=1), kept.max(axis=1))

    got = 0
    hits = 0
    proposed = 0
    through_last = 0
    parts_c, parts_s, parts_mn, parts_mx = [], [], [], []
    for k, hit, s, c, mn, mx in table.row_blocks(n, rng, scan=scan,
                                                 workers=WORKERS):
        hits += hit.size
        keep = min(hit.size, count - got)
        if keep:
            parts_c.append(c[:keep])
            parts_s.append(s[:keep])
            parts_mn.append(mn[:keep])
            parts_mx.append(mx[:keep])
            got += keep
            through_last = proposed + int(hit[keep - 1]) + 1
        proposed += k
        if proposed >= 200_000 and hits / proposed < 1e-4:
            raise LowAcceptance(
                f"acceptance {hits / proposed:.2e} after {proposed} proposals")
        if got == count:
            break
        if proposed > MAX_PROPOSALS:
            raise LowAcceptance(
                f"still {count - got} rows short after {proposed} proposals")

    coords = np.concatenate(parts_c, axis=0)
    sums = np.concatenate(parts_s)
    mins = np.concatenate(parts_mn)
    maxs = np.concatenate(parts_mx)
    w = np.exp(-td.t * (sums - level))
    ess = float(w.sum() ** 2 / (w ** 2).sum())
    return ConditionalSample(
        coords=coords, sums=sums, weights=w, mins=mins, maxs=maxs,
        acceptance=count / through_last, ess=ess,
        meta={"t": td.t, "proposals": proposed, "requested": count})


# ---------------------------------------------------------------------------
# marginal total variation

@dataclass(frozen=True)
class TVEstimate:
    tv: float
    ci_low: float
    ci_high: float
    bins: int
    sample_size: int

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.tv <= self.ci_high <= 1.0):
            raise DomainError("TV interval must satisfy 0<=lo<=tv<=hi<=1")


def _fd_bin_count(iqr: float, size: int, lo: float, hi: float) -> int:
    if iqr <= 0.0:
        return 10
    width = 2.0 * iqr / size ** (1.0 / 3.0)
    bins = int(np.ceil((hi - lo) / width)) if width > 0 else 400
    return int(min(400, max(10, bins)))


def _reference_bin_masses(pdf: Callable, edges: np.ndarray) -> np.ndarray:
    """Composite Simpson (8 panels per bin) of pdf over each bin."""
    nb = edges.size - 1
    sub = np.linspace(0.0, 1.0, 9)
    pts = edges[:-1, None] + np.diff(edges)[:, None] * sub[None, :]
    vals = np.asarray(pdf(pts.ravel()), dtype=float).reshape(nb, 9)
    h = np.diff(edges) / 8.0
    w = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1], dtype=float) / 3.0
    return (vals * w[None, :]).sum(axis=1) * h


TV_BOOTSTRAP = 200
# fewest resampling units whose bootstrap interval means anything: two
# chains give a replicate only three distinct outcomes
MIN_TV_UNITS = 20


def marginal_tv(sample: ConditionalSample, reference,
                seed: int = 7) -> TVEstimate:
    """Total variation between the sample's coordinate marginal and a
    reference law with a vectorized .pdf (tilted density or the second-order
    reference).

    Binned estimate: Freedman-Diaconis width capped to [10, 400] bins
    [e_i, e_i+1), reference bin masses by per-bin Simpson quadrature; mass
    outside the binned range counts in full.  The interval is a percentile
    bootstrap with TV_BOOTSTRAP replicates, clamped to bracket the point
    estimate; each replicate redraws the sample's units (tv_blocks: chains
    for Gibbs output, rows otherwise) with replacement and sums their masses.
    Raises TooFewSamples below 1000 values or MIN_TV_UNITS units.
    """
    ref_pdf = reference.pdf if hasattr(reference, "pdf") else reference
    blocks, weights = sample.tv_blocks()
    vals = np.sort(blocks, axis=1)  # bins in runs, percentiles partition fast
    units, size = vals.shape[0], vals.size
    if size < 1000:
        raise TooFewSamples(f"{size} draws < 1000")
    if units < MIN_TV_UNITS:
        raise TooFewSamples(
            f"{units} resampling units < {MIN_TV_UNITS}: too few for a "
            "bootstrap interval")
    lo_q, hi_q, q75, q25 = np.percentile(vals, [0.01, 99.99, 75.0, 25.0])
    pad = 0.05 * (hi_q - lo_q) + 1e-12
    lo, hi = max(0.0, lo_q - pad), hi_q + pad
    nb = _fd_bin_count(q75 - q25, size, lo, hi)
    edges = np.linspace(lo, hi, nb + 1)
    ref_mass = _reference_bin_masses(ref_pdf, edges)
    ref_out = max(0.0, 1.0 - ref_mass.sum())

    # one entry (bin, unit, mass) per run of a slot in a unit's sorted
    # values, unit-major; slots 0 (below lo) and nb + 1 (from hi on) both
    # fold into bin nb, the mass outside the range
    key = np.searchsorted(edges, vals, side="right")
    key += (nb + 2) * np.arange(units)[:, None]
    key = key.ravel()
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    unit, slot = np.divmod(key[first], nb + 2)
    mass = np.diff(first, append=size) * weights[unit]
    bins = (slot - 1) % (nb + 1)
    unit_mass = np.bincount(unit, mass, units)
    del vals, key  # the bootstrap needs no per-value array

    def tv_of(copies):
        # TV of the replicate that draws unit u copies[u] times; each bin
        # adds its entries' products in unit order
        p = (np.bincount(bins, mass * copies[unit], nb + 1)
             / (copies * unit_mass).sum())
        return 0.5 * (np.abs(p[:nb] - ref_mass).sum() + p[nb] + ref_out)

    tv = tv_of(np.ones(units))
    rng = np.random.default_rng(seed)
    draws = [tv_of(np.bincount(rng.integers(0, units, units),
                               minlength=units).astype(float))
             for _ in range(TV_BOOTSTRAP)]
    lo_ci, hi_ci = np.percentile(draws, [2.5, 97.5])
    return TVEstimate(tv=float(tv), ci_low=float(min(lo_ci, tv)),
                      ci_high=float(min(max(hi_ci, tv), 1.0)), bins=nb,
                      sample_size=size)


# ---------------------------------------------------------------------------
# local Gibbs ratio

@dataclass(frozen=True, eq=False)
class GibbsLocalReport:
    y: np.ndarray
    ratio: np.ndarray  # conditional density over pi_t
    reference: np.ndarray  # pi_t

    @property
    def density(self) -> np.ndarray:
        return self.ratio * self.reference


def gibbs_local_check(d: LightTailDensity, cond: ConditionDescriptor,
                      y_grid) -> GibbsLocalReport:
    """Exact ratio of the density of X_1 given S_n = n a to the tilted
    density pi_t, on y_grid (tilting leaves the conditional law unchanged).

    For n >= 3 it is r(z1_centered(n, a, y, s)) / C, with r the
    standardized (n-1)-fold tilted density of convolve_oracle and C one
    trapezoid of pi_t r over a +- 40 s, cut at 0.  For n = 2 it is
    pi_t(2a - y) / C on [0, 2a] and 0 beyond, with C the trapezoid of
    pi_t(y) pi_t(2a - y) over a +- 40 s cut to [0, 2a], so a kink or jump
    of pi_t at 0 stays at a node.
    """
    if cond.kind != "point":
        raise DomainError("the local ratio needs a point descriptor")
    n, a = cond.n, cond.a_n
    td = tilt_to_mean(d, a)
    y = np.atleast_1d(np.asarray(y_grid, dtype=float))
    lo, hi = max(0.0, a - 40.0 * td.s), a + 40.0 * td.s
    if n == 2:
        def r(u):
            return np.where(u <= 2.0 * a,
                            td.pdf(np.maximum(2.0 * a - u, 0.0)), 0.0)
        hi = min(hi, 2.0 * a)
    else:
        oracle = convolve_oracle(td, n - 1)

        def r(u):
            return oracle(z1_centered(n, a, u, td.s))
    bulk = np.linspace(lo, hi, 20_001)
    norm = np.trapezoid(td.pdf(bulk) * r(bulk), bulk)
    return GibbsLocalReport(y=y, ratio=r(y) / norm, reference=td.pdf(y))


# ---------------------------------------------------------------------------
# second-order reference density

@dataclass(frozen=True, eq=False)
class SecondOrderReference:
    """y -> C pi_t(y) N(a_n, s^2(t)(n-1))(y), normalized by quadrature.

    Exact factorization of the point-conditional marginal: p(y) rho_{n-1}(n a - y)
    / rho_n(n a) with the leave-one-out sum written through its tilted CLT is
    pi_t(y) times a Gaussian in (y - a_n) of variance s^2 (n-1), up to
    normalization.  The Gaussian factor flattens at rate 1/(n-1) on the tilted
    bulk, which is what drives reference -> tilted as n grows.  pi_t is td.
    """

    td: TiltedDensity
    n: int
    a_n: float
    sigma2: float
    log_norm: float  # log of the unnormalized integral

    @property
    def log_C(self) -> float:
        return -self.log_norm

    def log_pdf(self, y):
        y = np.asarray(y, dtype=float)
        gauss = -0.5 * (y - self.a_n) ** 2 / self.sigma2 \
            - 0.5 * math.log(2.0 * math.pi * self.sigma2)
        return self.td.log_pdf(y) + gauss - self.log_norm

    def pdf(self, y):
        out = np.exp(self.log_pdf(y))
        return out[()] if np.ndim(y) == 0 else out


def second_order_reference(d: LightTailDensity, n: int,
                           a_n: float) -> SecondOrderReference:
    """Gaussian-corrected marginal reference: C pi_t(y) N(a_n, s^2(t_n)(n-1))."""
    if n < 2:
        raise DomainError("second-order reference needs n >= 2")
    td = tilt_to_mean(d, a_n)
    sigma2 = td.s2 * (n - 1)
    unnormalized = SecondOrderReference(td=td, n=n, a_n=a_n, sigma2=sigma2,
                                        log_norm=0.0)
    tilted = d.centered(td.t)

    def centered(x0: float):
        # the unnormalized log density at x0 and its exponent centered there
        E = tilted(x0)[1]
        slope = (x0 - a_n) / sigma2
        return float(unnormalized.log_pdf(x0)), lambda delta: (
            E(delta) - slope * delta - 0.5 * delta * delta / sigma2)

    # L' = t - h(y) - (y - a_n)/sigma2 decreases; the peak sits near a_n
    def hd(y: float) -> tuple[float, float]:
        h, h1 = d.h_pair(y)
        return h + (y - a_n) / sigma2, h1 + 1.0 / sigma2

    return replace(unnormalized,
                   log_norm=moments(hd, td.t, centered, a_n).log_z)


# ---------------------------------------------------------------------------
# democratic localization

@dataclass(frozen=True)
class DLPWindow:
    """Window (a_n - eps_n, a_n + eps_n) for the all-coordinates check.

    criterion_value is n log(a_n) / (a_n^(k-2) eps_n^2); the schedule keeps
    it at n^(-0.2) by construction.  feasible records whether the window is
    narrower than the level itself; an infeasible window still defines a
    valid (if weak) event.
    """

    epsilon_n: float
    window: tuple
    criterion_value: float
    k: float
    n: int
    a_n: float
    feasible: bool


def epsilon_schedule(k: float, n: int, a_n: float,
                     strict: bool = False) -> DLPWindow:
    """eps_n = n^0.1 sqrt(n log a_n / a_n^(k-2)).

    The n^0.1 slack forces the localization criterion value to n^(-0.2) -> 0
    for every (k, a_n).  When eps_n >= a_n the window swallows the whole
    lower range; that is flagged (feasible=False) and raises
    ScheduleInfeasible only in strict mode.
    """
    if k <= 1.0:
        raise DomainError("schedule defined for tail index k > 1")
    if a_n <= math.e:
        raise DomainError("schedule needs a_n > e so log a_n > 1")
    if n < 2:
        raise DomainError("schedule needs n >= 2")
    core = n * math.log(a_n) / a_n ** (k - 2.0)
    eps = n ** 0.1 * math.sqrt(core)
    crit = core / eps ** 2
    feasible = eps / a_n < 1.0
    if strict and not feasible:
        raise ScheduleInfeasible(
            f"eps_n/a_n = {eps / a_n:.3g} >= 1 at n={n}, k={k:g}")
    return DLPWindow(epsilon_n=eps, window=(a_n - eps, a_n + eps),
                     criterion_value=crit, k=k, n=n, a_n=a_n,
                     feasible=feasible)


@dataclass(frozen=True)
class DLPEstimate:
    estimate: float
    se: float
    window: DLPWindow
    sample_size: int
    ess: float
    precondition_value: float


def _weighted_fraction(w: np.ndarray, ind: np.ndarray) -> tuple[float, float]:
    """(estimate, se) of the weighted mean of a 0/1 indicator.

    The estimate is sum(w * ind) / sum(w): both sums run the same pairwise
    tree over equal-shape arrays and rounding is monotone, so it lies in
    [0, 1] exactly and is 1.0 when ind is all ones."""
    total = np.sum(w)
    est = float(np.sum(w * ind) / total)
    wn = w / total
    return est, float(np.sqrt(np.sum(wn ** 2 * (ind - est) ** 2)))


def _warn_low_ess(sample: ConditionalSample, n: int) -> None:
    """One ESS_LOW warning when the weight ESS falls below ESS_FLOOR."""
    if sample.ess < ESS_FLOOR:
        warnings.warn(
            f"weight ESS {sample.ess:.1f} of {sample.sums.size} rows at n={n} "
            f"is below {ESS_FLOOR:g}: the estimate rests on few effective "
            "draws", LowESSWarning, stacklevel=3)


def dlp_check(d: LightTailDensity, cond: ConditionDescriptor,
              window: DLPWindow, count: int = 20000, seed: int = 0,
              delta: float = 0.1,
              sample: Optional[ConditionalSample] = None) -> DLPEstimate:
    """Weighted probability that every coordinate of an exceedance-conditional
    state lies inside the window.

    The estimate is a ratio of weighted sums, sum(w * inside) / sum(w), over
    arrays of one shape: it lies in [0, 1] exactly and is exactly 1.0 when
    every row is inside the window.  The standard error se is 0 whenever the
    indicator is constant over the sample, whatever the ESS, so a zero se on
    an all-inside (or all-outside) sample says nothing about precision.

    Precondition proxy: log g(a_n) / log n must exceed delta, which keeps the
    level genuinely extreme relative to n.  A weight ESS below ESS_FLOOR
    emits one LowESSWarning; the estimate is returned all the same.
    """
    g_an = d.g_scalar(cond.a_n)
    if g_an <= 0.0 or math.log(g_an) / math.log(cond.n) <= delta:
        raise DomainError(
            "level not extreme enough: log g(a_n)/log n <= delta")
    if sample is None:
        sample = sample_exceedance_conditional(d, cond, count, seed=seed)
    if sample.mins is None or sample.maxs is None:
        raise DomainError("need an exceedance sample with min/max tracking")
    _warn_low_ess(sample, cond.n)
    lo, hi = window.window
    ind = ((sample.mins > lo) & (sample.maxs < hi)).astype(float)
    est, se = _weighted_fraction(sample.weights, ind)
    return DLPEstimate(estimate=est, se=se, window=window,
                       sample_size=int(ind.size), ess=sample.ess,
                       precondition_value=float(math.log(g_an)
                                                / math.log(cond.n)))


# ---------------------------------------------------------------------------
# tilted location law

@dataclass(frozen=True, eq=False)
class LocationLawReport:
    a: np.ndarray
    t: np.ndarray
    s: np.ndarray
    ks: np.ndarray


def location_law_check(d: LightTailDensity, a_grid) -> LocationLawReport:
    """Kolmogorov distance between the standardized tilted law (X - a)/s and
    the standard normal, for each level in a_grid.

    The tilted law is the one its draws come from, the table of
    sampler_tilted: max |F - Phi((x - a)/s)| over the table's knots (x, F),
    through which its spline inverse passes.  No draws, so no noise floor.
    """
    a_grid = np.atleast_1d(np.asarray(a_grid, dtype=float))
    tds = [tilt_to_mean(d, float(a)) for a in a_grid]
    tables = [sampler_tilted(td) for td in tds]
    phi = np.frompyfunc(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), 1, 1)
    ks = [np.max(np.abs(tb.F - phi((tb.x - a) / td.s).astype(float)))
          for a, td, tb in zip(a_grid, tds, tables)]
    return LocationLawReport(a=a_grid, t=np.array([td.t for td in tds]),
                             s=np.array([td.s for td in tds]), ks=np.array(ks))


# ---------------------------------------------------------------------------
# exceedance vs point equivalence

@dataclass(frozen=True)
class EquivalenceRow:
    lo: float
    hi: float
    p_exceedance: float
    se: float
    ref_mass: float
    ratio: float
    ratio_low: float
    ratio_high: float


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    n: int
    a_n: float
    rows: tuple
    ess: float
    acceptance: float


def exceedance_vs_point_equivalence(d: LightTailDensity, n: int, a_n: float,
                                    B: Sequence, count: int = 40000,
                                    seed: int = 0) -> EquivalenceReport:
    """P(X_1 in B | S_n >= n a_n) against the tilted mass of B, per interval.

    Raises MassTooSmall when an interval's empirical exceedance mass has
    lower confidence bound under 0.01: ratios on starved sets say nothing.
    A weight ESS below ESS_FLOOR emits one LowESSWarning.
    """
    cond = ConditionDescriptor("exceedance", n, a_n)
    sample = sample_exceedance_conditional(d, cond, count, seed=seed)
    _warn_low_ess(sample, n)
    td = tilt_to_mean(d, a_n)
    x1 = sample.coords[:, 0]
    rows = []
    for (lo, hi) in B:
        if not lo < hi:
            raise DomainError("interval bounds must satisfy lo < hi")
        ind = ((x1 > lo) & (x1 < hi)).astype(float)
        p, se = _weighted_fraction(sample.weights, ind)
        if p - 2.0 * se < 0.01:
            raise MassTooSmall(
                f"interval ({lo:g},{hi:g}): empirical mass {p:.4f} "
                f"(lower bound {p - 2 * se:.4f}) below 0.01")
        # subdivide so wide intervals resolve the tilted bump (width ~ s)
        panels = max(1, min(2000, int(math.ceil((hi - max(lo, 0.0))
                                                / (0.1 * td.s)))))
        edges = np.linspace(max(lo, 0.0), hi, panels + 1)
        ref = float(_reference_bin_masses(td.pdf, edges).sum())
        rows.append(EquivalenceRow(
            lo=lo, hi=hi, p_exceedance=p, se=se, ref_mass=ref,
            ratio=p / ref, ratio_low=(p - 2 * se) / ref,
            ratio_high=(p + 2 * se) / ref))
    return EquivalenceReport(n=n, a_n=a_n, rows=tuple(rows), ess=sample.ess,
                             acceptance=sample.acceptance)
