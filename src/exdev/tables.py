"""Monotone CDF tables for fast inverse-transform sampling.

A table is built once from a log density by dense evaluation around the peak
(refined there, geometric in the tails), cumulative trapezoid integration and
a monotone PCHIP spline in each direction.  Sampling is then a vectorized
spline evaluation, cheap enough for 1e8 draws in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import TableBuildFail
from .quadrature import bisect_drop

__all__ = ["CdfTable", "build_cdf_table"]


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Tabulated CDF with monotone spline inverses; immutable once built."""

    x: np.ndarray
    F: np.ndarray
    _ppf: PchipInterpolator
    _cdf: PchipInterpolator

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        out = self._ppf(np.clip(u, 0.0, 1.0))
        return out[()] if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip(self._cdf(np.clip(x, self.x[0], self.x[-1])), 0.0, 1.0)
        out = np.where(x < self.x[0], 0.0, out)
        out = np.where(x > self.x[-1], 1.0, out)
        return out[()] if out.ndim == 0 else out

    def sample(self, count: int, rng: np.random.Generator,
               batch: int = 4_000_000) -> np.ndarray:
        out = np.empty(count, dtype=float)
        done = 0
        while done < count:
            m = min(batch, count - done)
            out[done:done + m] = self.ppf(rng.random(m))
            done += m
        return out


def _knot_layout(peak: float, scale: float, lo: float, hi: float,
                 knots: int) -> np.ndarray:
    """Dense around the peak (within +-10 scale), geometric walk to the cuts."""
    n_core = max(int(knots * 0.6), 32)
    n_tail = max((knots - n_core) // 2, 16)
    core_lo = max(lo, peak - 10.0 * scale)
    core_hi = min(hi, peak + 10.0 * scale)
    parts = [np.linspace(core_lo, core_hi, n_core)]
    if core_lo > lo:
        w = core_lo - lo
        steps = np.geomspace(1e-4 * w, w, n_tail)
        parts.append(core_lo - steps)
    if core_hi < hi:
        w = hi - core_hi
        steps = np.geomspace(1e-4 * w, w, n_tail)
        parts.append(core_hi + steps)
    pts = np.unique(np.concatenate(parts + [np.array([lo, hi])]))
    return pts[(pts >= lo) & (pts <= hi)]


def build_cdf_table(log_pdf: Callable, *, peak: float, scale: float,
                    lo: float = 0.0, knots: int = 4096,
                    drop: float = 60.0) -> CdfTable:
    """Build a CdfTable from a normalized log density.

    peak and scale are hints: the mode location and a dispersion estimate.
    drop sets the tail cut where the density has fallen by exp(-drop)
    relative to the mode (mass beyond is far below every tolerance used
    downstream).
    """
    if not (math.isfinite(peak) and math.isfinite(scale) and scale > 0.0):
        raise TableBuildFail("bad peak/scale hints")

    def L(x: float) -> float:
        v = float(log_pdf(x))
        return v if math.isfinite(v) else -math.inf

    M = L(peak)
    if not math.isfinite(M):
        raise TableBuildFail("log density not finite at the supplied peak")
    target = M - drop

    x_lo = lo if L(lo) >= target else bisect_drop(L, peak, lo, target)
    # callers may pass the mean as the peak hint, so L can still rise just
    # right of it: unlike quadrature.window, no divergence check here
    w = max(scale, 1e-8)
    x = peak
    for _ in range(200):
        if L(peak + w) < target:
            break
        x = peak + w
        w *= 2.0
        if peak + w > 1e15:
            raise TableBuildFail("density does not decay on the right")
    x_hi = bisect_drop(L, x, peak + w, target)

    grid = _knot_layout(peak, scale, x_lo, x_hi, knots)
    if grid.size < 32:
        raise TableBuildFail("degenerate knot layout")
    logf = np.asarray(log_pdf(grid), dtype=float)
    logf = np.where(np.isfinite(logf), logf, -np.inf)
    f = np.exp(logf - M)
    seg = 0.5 * (f[1:] + f[:-1]) * np.diff(grid)
    F = np.concatenate([[0.0], np.cumsum(seg)])
    total = F[-1]
    if not total > 0.0:
        raise TableBuildFail("zero mass over the table window")
    F /= total

    keep = np.concatenate([[True], np.diff(F) > 0.0])
    xs, Fs = grid[keep], F[keep]
    if Fs[-1] < 1.0:
        Fs = Fs / Fs[-1]
    if xs.size < 16:
        raise TableBuildFail("too few strictly increasing CDF knots")
    return CdfTable(x=xs, F=Fs,
                    _ppf=PchipInterpolator(Fs, xs, extrapolate=False),
                    _cdf=PchipInterpolator(xs, Fs, extrapolate=False))
