"""Third-order expansion of the standardized n-fold tilted law, with an
exact table of that law from its characteristic function.

With a = m(t) and s = s(t), the density of (sum of n iid copies - n a) /
(s sqrt(n)) is approximated by

    rho_n(x) = phi(x) * (1 + mu3/(6 sqrt(n) s^3) * (x^3 - 3x))

and checked against `convolve_oracle`, which inverts phi(u / sqrt(n))^n,
the characteristic function of the standardized law summed over the nodes
of its moment trapezoid, by one irfft.  Nothing is sampled on a grid, so a
jump or kink of pi_t at 0 costs no edge error; the rule's h-versus-2h check
says how far in frequency phi is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassLeak
from .quadrature import TRAP_TOL
from .tilting import TiltedDensity, moment_rule

__all__ = [
    "EdgeworthEval", "GridSpec", "ConvolutionTable",
    "edgeworth_density", "convolve_oracle", "z1_raw", "z1_centered",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


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


def convolve_oracle(td: TiltedDensity, n: int,
                    grid: GridSpec = GridSpec()) -> ConvolutionTable:
    """Exact density of (S_n - n m)/(s sqrt(n)) for the tilt td, on the grid.

    The standardized law has the characteristic function phi(u) = sum_j
    w_j exp(i u z_j) / sum_j w_j over the nodes z_j = (delta_j - offset)/s
    of td's moment rule (`tilting.moment_rule`).  phi(u/sqrt(n))^n is
    taken at the grid's frequencies u = k pi/half_width, phi by the
    recurrence e^{i(k+1)du z} = e^{ik du z} e^{i du z}, until |phi|^n <
    1e-20 or the rule and its step-2h half differ by more than TRAP_TOL,
    and one irfft inverts it (Fourier-series inversion; Abate & Whitt 1992,
    Queueing Systems 10:5).  n = 1 is the standardized density sampled on
    the grid.  Raises MassLeak when the rule stops with |phi|^n above 1e-10
    (a jump or kink of pi_t at 0 at small n) or when the table keeps
    visible mass in its outer fringes (the window is too narrow and the sum
    wraps).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    N = grid.points
    dx = 2.0 * grid.half_width / N
    x = (np.arange(N) - N // 2) * dx
    if n == 1:
        y = td.s * x + td.m
        rho = np.where(y >= 0.0, td.s * td.pdf(np.maximum(y, 0.0)), 0.0)
    else:
        rule = moment_rule(td.base, td.t)
        w, even = rule.w, rule.even
        z = (rule.delta - rule.offset) / td.s
        step = np.exp(1j * math.pi / (grid.half_width * math.sqrt(n)) * z)
        wave = np.ones_like(step)
        mass, mass_half = w.sum(), w[even::2].sum()
        phi = np.zeros(N // 2 + 1, dtype=complex)
        phi[0] = 1.0
        for k in range(1, N // 2 + 1):
            wave *= step
            terms = w * wave
            phi_k = terms.sum() / mass
            power = abs(phi_k) ** n
            if abs(phi_k - terms[even::2].sum() / mass_half) > TRAP_TOL:
                if power > 1e-10:
                    raise MassLeak(
                        f"the moment rule resolves phi only while |phi|^n = "
                        f"{power:.3g} > 1e-10 (n = {n}, a = {td.m:.6g})")
                break
            if power < 1e-20:
                break
            phi[k] = phi_k
        rho = np.fft.fftshift(np.fft.irfft(np.conj(phi) ** n, n=N)) / dx
    # the sum wraps around the window: visible mass in its outer fringes
    edge = max(2, N // 64)
    if (np.trapezoid(np.abs(rho[:edge]), x[:edge])
            + np.trapezoid(np.abs(rho[-edge:]), x[-edge:])) > 1e-9:
        raise MassLeak(f"the window +-{grid.half_width:g} is too narrow for "
                       f"the standardized n = {n} sum")
    return ConvolutionTable(n=n, x=x, density=rho)


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
