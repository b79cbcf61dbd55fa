"""Third-order expansion of the standardized n-fold tilted law, with an FFT
self-convolution oracle.

The normalized tilted density is pibar(x) = s * pi(s x + a) where a = m(t)
and s = s(t); it has mean 0 and variance 1 by construction.  The density of
(sum of n iid copies)/sqrt(n) is approximated by

    rho_n(x) = phi(x) * (1 + mu3/(6 sqrt(n) s^3) * (x^3 - 3x))

and checked against an exact discrete self-convolution computed by powering
the sampled spectrum (binary squaring, log2(n) passes).  The spectrum power
runs on a sqrt(n)-widened grid with the output point count, so the final
rescale x -> sqrt(n) x lands exactly on grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassLeak
from .tilting import TiltedDensity

__all__ = [
    "NormalizedTiltedDensity", "EdgeworthEval", "GridSpec", "ConvolutionTable",
    "edgeworth_density", "convolve_oracle", "z1_raw", "z1_centered",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class NormalizedTiltedDensity:
    """x -> s * pi(s x + a): the tilted law standardized to mean 0, var 1."""

    tilted: TiltedDensity

    @property
    def a(self) -> float:
        return self.tilted.m

    @property
    def s(self) -> float:
        return self.tilted.s

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        y = self.s * x + self.a
        out = np.where(y >= 0.0, self.s * self.tilted.pdf(np.maximum(y, 0.0)), 0.0)
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class EdgeworthEval:
    """Expansion pieces at the evaluation points: value = gaussian + correction."""

    n: int
    x: np.ndarray
    value: np.ndarray
    gaussian: np.ndarray
    correction: np.ndarray
    skew_coeff: float  # mu3 / (6 sqrt(n) s^3)


def edgeworth_density(td: TiltedDensity, n: int, x) -> EdgeworthEval:
    """Third-order expansion of the standardized sum density at x.

    The correction can push the value below zero far in the tails; it is
    never clipped, so the caller sees the expansion exactly as defined.
    x^3 is formed as x * x * x: equal to x ** 3 where the cube is exact, as
    on every convolve_oracle grid at half-widths 12 and 18, and elsewhere
    to within the rounding of x^3.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coeff = td.mu3 / (6.0 * math.sqrt(n) * td.s ** 3)
    gauss = np.exp(-0.5 * x * x) / _SQRT2PI
    # x * x * x, not x ** 3: a mixed-sign grid sends ** to numpy's
    # negative-base pow, some 60 times slower
    corr = gauss * coeff * (x * x * x - 3.0 * x)
    return EdgeworthEval(n=n, x=x, value=gauss + corr, gaussian=gauss,
                         correction=corr, skew_coeff=coeff)


@dataclass(frozen=True)
class GridSpec:
    """Output grid for the convolution oracle, in standardized units."""

    half_width: float = 12.0
    points: int = 2 ** 14

    def __post_init__(self):
        if self.points % 2 or self.points < 256:
            raise DomainError("grid points must be even and >= 256")
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")


@dataclass(frozen=True, eq=False)
class ConvolutionTable:
    """Tabulated standardized n-fold self-convolution on a uniform grid."""

    n: int
    x: np.ndarray
    density: np.ndarray

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.x, self.density,
                        left=0.0, right=0.0)
        return out[()] if np.ndim(x) == 0 else out


def _spectrum_power(F: np.ndarray, n: int) -> np.ndarray:
    """F**n elementwise by binary squaring (log2 n complex squarings)."""
    result = None
    base = F
    k = n
    while k:
        if k & 1:
            result = base.copy() if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def convolve_oracle(td: TiltedDensity, n: int,
                    grid: GridSpec = GridSpec()) -> ConvolutionTable:
    """Exact discretized density of (S_n - n a)/(s sqrt(n)) for the tilt td.

    The normalized single-draw density is sampled on a sqrt(n)-wide grid
    (same point count as the output), its real FFT is powered by binary
    squaring, and the inverse transform is read off at sqrt(n)-rescaled
    nodes, which are exactly the output nodes.  Raises MassLeak when the
    window cannot hold the mass even after automatic widening.
    """
    if not 1 <= n <= 1024:
        raise DomainError("oracle supports 1 <= n <= 1024")
    ntd = NormalizedTiltedDensity(td)
    root_n = math.sqrt(n)
    half = grid.half_width
    N = grid.points
    for _ in range(4):
        dx_out = 2.0 * half / N
        idx = np.arange(N) - N // 2
        x_out = idx * dx_out
        dx_sum = dx_out * root_n
        x_wide = idx * dx_sum
        fbar = ntd.pdf(x_wide)
        peak = float(fbar.max())
        if not peak > 0.0:
            raise MassLeak("single-step density vanished on the window")
        # truncation shows up as visible density at the window edges; the
        # guard also widens when the trapezoid mass misses 1 by over 1e-4,
        # as a jump or x^(1/2) kink at x = 0 does (an open ROADMAP fault,
        # "The FFT table at every admitted level"); less is renormalized
        fringe = max(2, N // 512)
        edge_val = max(float(fbar[:fringe].max()), float(fbar[-fringe:].max()))
        mass = np.trapezoid(fbar, x_wide)
        if edge_val > 1e-12 * peak or abs(mass - 1.0) > 1e-4:
            half *= 1.5
            continue
        spec = np.fft.rfft(np.fft.ifftshift(fbar)) * dx_sum
        powered = _spectrum_power(spec, n)
        fsum = np.fft.fftshift(np.fft.irfft(powered, n=N)) / dx_sum
        rho = root_n * fsum
        edge = max(2, N // 64)
        edge_mass = (np.trapezoid(np.abs(rho[:edge]), x_out[:edge])
                     + np.trapezoid(np.abs(rho[-edge:]), x_out[-edge:]))
        if edge_mass > 1e-9:
            half *= 1.5
            continue
        total = np.trapezoid(rho, x_out)
        if not total > 0.0:
            raise MassLeak("self-convolution lost its mass")
        return ConvolutionTable(n=n, x=x_out, density=rho / total)
    raise MassLeak("window too narrow for the standardized sum even after widening")


def z1_raw(n: int, a_n: float, y1: float, s: float) -> float:
    """(n a_n - y1)/(s sqrt(n-1)): the printed form of the leave-one-out
    standardized coordinate."""
    if n < 2 or s <= 0.0:
        raise DomainError("need n >= 2 and s > 0")
    return (n * a_n - y1) / (s * math.sqrt(n - 1.0))


def z1_centered(n: int, a_n: float, y1: float, s: float) -> float:
    """(a_n - y1)/(s sqrt(n-1)): centered variant, consistent with the
    leave-one-out sum having mean (n-1) a_n."""
    if n < 2 or s <= 0.0:
        raise DomainError("need n >= 2 and s > 0")
    return (a_n - y1) / (s * math.sqrt(n - 1.0))
