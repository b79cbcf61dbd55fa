"""Monotone CDF tables for fast inverse-transform sampling.

A table is built once from a log density and its slope: the window is cut
on each side by the package's one root solver (`quadrature.solve_increasing`)
where the density falls by exp(-TAIL_DROP), then dense evaluation around the
peak (refined there, geometric in the tails), cumulative trapezoid
integration and a monotone PCHIP interpolant of x as a function of F
(Fritsch & Carlson 1980), its coefficients formed in numpy with the
arithmetic of scipy's PchipInterpolator.  Only the interpolant's cubic
coefficients are kept.

Inversion uses a guide table (Chen & Asau 1974; Devroye 1986, sec. III.2.4):
`guide[j]` is the knot interval holding j/K for K = 2^14 buckets, a power of
two so that u*K and j/K are exact.  A draw u in bucket j = floor(u*K) lies in
interval guide[j] or guide[j] + 1 unless the bucket is "wide" (its guide
entries differ by more than one, which happens only in the tails where knots
are dense in F); those few draws fall back to a binary search.  The cubic is
then evaluated in the same order as scipy's PPoly, so every value equals
`PchipInterpolator(F, x)(u)` bit for bit.  Every gather index is in range by
construction, so `np.take` runs with mode="clip", which writes its output
unbuffered, and the clipping never fires.  Draws are filled and transformed
in place in blocks of BLOCK = 2^16, so the intermediates stay in cache; the
six scratch arrays of a block are made once per thread and reused, so threads
can share a table and a call allocates nothing but its output.

`CdfTable.row_blocks(n, rng, rows, scan, workers)` is the one way rows of n
iid draws are made: it yields scan(block) for successive (k, n) blocks of
k n <= max(BLOCK, n) draws, each filled through `sample(..., out=)` into a
buffer of the thread that fills it.  With several workers and a PCG64 rng
the blocks are filled ahead, each from a copy of rng advanced to its first
draw; blocks filled ahead and not consumed are dropped.  A double consumes
one 64-bit output whatever the split, so the rows are those of
`sample(rows * n, rng).reshape(rows, n)` bit for bit at any worker count,
while memory stays one block and its scratch per worker.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import TableBuildFail
from .quadrature import STEP_TOL, solve_increasing

__all__ = ["CdfTable", "build_cdf_table"]

GUIDE_BUCKETS = 1 << 14
# 2^16, not the 2^14 that one thread prefers: on a 2-core x86 box one thread
# fills at 16.9 ns/draw at 2^14 and 18.2 at 2^16, but two row_blocks threads
# take 21.4 ns/draw of wall time at 2^14 against 10.5 at 2^16 (a thread
# hands the GIL over between numpy calls, so fewer, longer calls overlap
# better), and an exceedance workload pass takes 0.21 s at 2^16, 0.37 s at
# 2^14 and 0.67 s at 2^13
BLOCK = 1 << 16
KNOTS = 4096
# tail cut: the density has fallen by exp(-TAIL_DROP) from its mode there
TAIL_DROP = 60.0
# bit generators whose advance(d) skips exactly d doubles (Philox's skips
# counter blocks of four)
_ADVANCES_BY_DRAWS = (np.random.PCG64, np.random.PCG64DXSM)


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Tabulated CDF with a guide-table spline inverse; immutable once built.

    x, F are the knots (F[0] = 0, F[-1] = 1, strictly increasing); c holds
    the PCHIP coefficients of x(F), shape (4, len(F) - 1), highest power
    first; F_next[i] = F[i + 1] except +inf for the last interval, which is
    closed on the right; wide[j] flags buckets whose guide entries differ by
    more than one.
    """

    x: np.ndarray
    F: np.ndarray
    c: np.ndarray
    F_next: np.ndarray
    guide: np.ndarray
    wide: np.ndarray

    def ppf(self, u):
        u = np.array(u, dtype=float, order="C")
        np.clip(u, 0.0, 1.0, out=u)
        nan = np.isnan(u)
        u[nan] = 0.0
        flat = u.reshape(-1)
        work = _work_arrays(min(flat.size, BLOCK))
        for lo in range(0, flat.size, BLOCK):
            self._invert(flat[lo:lo + BLOCK], work)
        u[nan] = np.nan
        return u[()] if u.ndim == 0 else u

    def sample(self, count: int, rng: np.random.Generator,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """count iid draws, written into `out` (float, contiguous, of size
        count) when given."""
        if out is None:
            out = np.empty(count, dtype=float)
        elif out.size != count:
            raise ValueError(f"out has {out.size} slots for {count} draws")
        work = _work_arrays(min(count, BLOCK))
        for lo in range(0, count, BLOCK):
            block = out[lo:lo + BLOCK]
            rng.random(out=block)
            self._invert(block, work)
        return out

    def row_blocks(self, n: int, rng: np.random.Generator,
                   rows: Optional[int] = None, scan: Callable = np.copy,
                   workers: int = 1) -> Iterator:
        """scan(block) for successive (k, n) blocks of rows of n iid draws,
        `rows` in all (endless when None), in stream order, filled ahead by
        `workers` threads when rng is a PCG64.  scan runs in the filling
        thread and must not return a view of the block.  On exit rng stands
        past exactly the rows yielded, as if drawn in sequence; the caller
        draws nothing else from rng while the stream is open."""
        step = max(BLOCK // n, 1)
        total = math.inf if rows is None else rows
        bitgen = rng.bit_generator
        ahead = workers > 1 and isinstance(bitgen, _ADVANCES_BY_DRAWS)
        depth = workers + 1 if ahead else 1
        start = bitgen.state
        local = threading.local()

        def fill(row: int, k: int):
            if not hasattr(local, "buf"):
                local.buf = np.empty(step * n, dtype=float)
                local.rng = (np.random.Generator(type(bitgen)()) if ahead
                             else rng)
            if ahead:
                local.rng.bit_generator.state = start
                local.rng.bit_generator.advance(row * n)
            block = self.sample(k * n, local.rng, out=local.buf[:k * n])
            return scan(block.reshape(k, n))

        pool = ThreadPoolExecutor(workers) if ahead else None
        pending = collections.deque()
        drawn = done = 0
        try:
            while done < total:
                while drawn < total and len(pending) < depth:
                    k = min(step, total - drawn)
                    job = (pool.submit(fill, drawn, k).result if ahead
                           else functools.partial(fill, drawn, k))
                    pending.append((k, job))
                    drawn += k
                k, job = pending.popleft()
                out = job()
                done += k
                yield out
        finally:
            if ahead:
                pool.shutdown(cancel_futures=True)
                # advance drops PCG64's cached uint32 half, which doubles
                # never touch: put it back
                bitgen.advance(done * n)
                bitgen.state = {**bitgen.state,
                                "has_uint32": start["has_uint32"],
                                "uinteger": start["uinteger"]}

    def _invert(self, u: np.ndarray, work: tuple) -> None:
        """Overwrite u (values in [0, 1]) with x(u)."""
        j, i, hit, s, z, tmp = (a[:u.size] for a in work)
        np.multiply(u, GUIDE_BUCKETS, out=s)
        np.copyto(j, s, casting="unsafe")
        # mode="clip" lets take write `out` unbuffered ("raise" buffers it);
        # no index ever clips: j <= K indexes guide (K + 2) and wide (K + 1),
        # guide <= F.size - 2, and F_next[-1] = inf stops `i += hit` there
        np.take(self.guide, j, out=i, mode="clip")
        np.take(self.F_next, i, out=s, mode="clip")
        np.less_equal(s, u, out=hit)
        i += hit
        np.take(self.wide, j, out=hit, mode="clip")
        if hit.any():
            # bucket K (u = 1) is never wide, so u < F[-1] here
            k = np.flatnonzero(hit)
            i[k] = np.searchsorted(self.F, u[k], "right") - 1
        c0, c1, c2, c3 = self.c
        np.take(self.F, i, out=s, mode="clip")
        np.subtract(u, s, out=s)
        # x = c3 + c2 s + c1 s^2 + c0 s^3, summed and powered as PPoly does
        np.take(c2, i, out=z, mode="clip")
        z *= s
        np.take(c3, i, out=u, mode="clip")
        u += z
        np.multiply(s, s, out=z)
        np.take(c1, i, out=tmp, mode="clip")
        tmp *= z
        u += tmp
        z *= s
        np.take(c0, i, out=tmp, mode="clip")
        tmp *= z
        u += tmp


_scratch = threading.local()


def _work_arrays(m: int) -> tuple:
    """This thread's scratch for a block of m draws, grown when too small."""
    work = getattr(_scratch, "work", None)
    if work is None or work[0].size < m:
        work = _scratch.work = (np.empty(m, dtype=np.intp),
                                np.empty(m, dtype=np.intp),
                                np.empty(m, dtype=bool), np.empty(m),
                                np.empty(m), np.empty(m))
    return work


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


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """End slope of the PCHIP (Moler, Numerical Computing with MATLAB, sec.
    3.6): the one-sided three-point estimate, set to 0 where its sign is not
    m0's and to 3 m0 where the secants change sign and it exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients of the monotone PCHIP of x as a function of F (F
    strictly increasing, at least 3 knots), shape (4, F.size - 1), highest
    power first: the slopes and the Hermite-to-power step of scipy's
    PchipInterpolator, operation for operation, so its .c is equal bit for
    bit."""
    h = np.diff(F)
    m = np.diff(x) / h
    sign = np.sign(m)
    # interior slopes: the weighted harmonic mean of the secants (Fritsch &
    # Butland 1984), or 0 at an extremum or a flat secant, where the mean's
    # division is discarded
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0,
                           1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    # PPoly starts its sum at +0.0, so a -0.0 knot value reads +0.0
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], x[:-1] + 0.0))


def build_cdf_table(log_pdf: Callable, slope: Callable[[float], float], *,
                    peak: float, scale: float) -> CdfTable:
    """Build a CdfTable from a normalized log density on [0, inf) and its
    slope d log_pdf / dx on one float.

    peak and scale are hints: a point near the mode (callers pass the mean)
    and a dispersion estimate.  Each side is cut where the density has
    fallen by exp(-TAIL_DROP) from its value at peak (mass beyond is far
    below every tolerance used downstream) by one solve_increasing call from
    a Gaussian's cut, out to the largest double on the right.  log_pdf may
    resolve x only to the spacing of doubles near peak (a centered form), so
    the left cut is solved to STEP_TOL * peak, and is 0 if it lies below.
    """
    if not (math.isfinite(peak) and math.isfinite(scale) and scale > 0.0):
        raise TableBuildFail("bad peak/scale hints")
    M = float(log_pdf(peak))
    if not math.isfinite(M):
        raise TableBuildFail("log density not finite at the supplied peak")

    def rise(x: float, sign: float = 1.0) -> tuple[float, float]:
        return sign * (float(log_pdf(x)) - M), sign * slope(x)

    guess = math.sqrt(2.0 * TAIL_DROP) * scale
    floor = STEP_TOL * peak
    at_floor = rise(floor)
    x_lo = 0.0 if at_floor[0] >= -TAIL_DROP else solve_increasing(
        rise, -TAIL_DROP, max(peak - guess, 0.5 * peak), lo=floor,
        at_lo=at_floor, x_max=peak, rtol=0.0, xtol=floor)
    x_hi = solve_increasing(
        lambda x: rise(x, -1.0), TAIL_DROP, peak + guess, lo=peak,
        at_lo=(0.0, -slope(peak)), x_max=sys.float_info.max, rtol=0.0)

    grid = _knot_layout(peak, scale, x_lo, x_hi, KNOTS)
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
    if xs.size < 16:
        raise TableBuildFail("too few strictly increasing CDF knots")
    c = _pchip_coefficients(Fs, xs)
    guide = np.minimum(np.searchsorted(
        Fs, np.arange(GUIDE_BUCKETS + 2) / GUIDE_BUCKETS, "right") - 1,
        Fs.size - 2)
    return CdfTable(x=xs, F=Fs, c=c, F_next=np.append(Fs[1:-1], np.inf),
                    guide=guide, wide=np.diff(guide) > 1)
