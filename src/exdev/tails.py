"""Saddlepoint tail probabilities for the standardized sum, with an
importance-sampling oracle.

For the mean constraint S_n >= n a the saddle t solves m(t) = a, the rate is
I(a) = a t - log phi(t), and the leading-order tail approximation is

    P(S_n >= n a) ~ exp(-n I(a)) / (sqrt(2 pi n) t s(t)).

The quantity lambda_n = sqrt(n) t s(t) measures how deep into the asymptotic
regime the call sits; below 5 the prefactor is unreliable and the estimate is
flagged (and a warning emitted) rather than refused.

The oracle draws iid rows from the a-tilted law, streamed through one
cache-sized buffer per batch, weights the exceedance indicator back to the
base measure, and accumulates everything in log space so that probabilities
near 1e-300 come out with honest relative error bars.  Each row block is
folded into a running log-sum-exp as it is drawn, so the oracle's memory
does not grow with the number of samples.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .densities import LightTailDensity
from .errors import AsymptoticRangeWarning, DegenerateWeights, DomainError
from .tables import CdfTable, build_cdf_table
from .tilting import TiltedDensity, tilt_to_mean

__all__ = [
    "TailEstimate", "ISOracleResult", "rate_I", "tail_prob",
    "sampler_tilted", "tail_prob_is_oracle", "LAMBDA_FLOOR", "ESS_FLOOR",
]

LAMBDA_FLOOR = 5.0
# fewest effective draws a weighted estimate may rest on
ESS_FLOOR = 100.0
# rows per oracle batch; every batch owns its own random stream
BATCH_ROWS = 250_000


def rate_I(d: LightTailDensity, a: float) -> float:
    """Legendre transform a t - log phi(t) at the saddle m(t) = a."""
    td = tilt_to_mean(d, a)
    return a * td.t - td.log_phi


@dataclass(frozen=True)
class TailEstimate:
    n: int
    a: float
    t: float
    s: float
    rate: float
    log_prob: float
    lambda_n: float
    lambda_ok: bool

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob) if self.log_prob > -745.0 else 0.0


def tail_prob(d: LightTailDensity, n: int, a: float) -> TailEstimate:
    """Leading-order saddlepoint estimate of P(S_n >= n a).

    Always returns the formula value; when lambda_n = sqrt(n) t s(t) < 5 the
    result carries lambda_ok=False and an AsymptoticRangeWarning, since the
    geometric-sum prefactor 1/(t s) is only trustworthy deep in the tilted
    regime.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    td = tilt_to_mean(d, a)
    rate = a * td.t - td.log_phi
    lam = math.sqrt(n) * td.t * td.s
    ok = lam >= LAMBDA_FLOOR
    if not ok:
        warnings.warn(
            f"lambda_n = {lam:.3g} < {LAMBDA_FLOOR:g}: prefactor outside its "
            "working range, estimate flagged", AsymptoticRangeWarning,
            stacklevel=2)
    log_p = -n * rate - math.log(math.sqrt(2.0 * math.pi * n) * td.t * td.s)
    return TailEstimate(n=n, a=a, t=td.t, s=td.s, rate=rate, log_prob=log_p,
                        lambda_n=lam, lambda_ok=ok)


def sampler_tilted(td: TiltedDensity) -> CdfTable:
    """Inverse-CDF table for the tilted density, usable for bulk iid draws."""
    slope = lambda x: td.t - td.base.g_prime_scalar(x)
    return build_cdf_table(td.log_pdf, slope, peak=td.m, scale=td.s)


@dataclass(frozen=True)
class ISOracleResult:
    n: int
    a: float
    samples: int
    log_prob: float
    rel_se: float
    ess: float
    hit_fraction: float
    seed: int
    batches: int = field(default=0)

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob) if self.log_prob > -745.0 else 0.0


# (max m, sum of e^(w - m), sum of e^(2 (w - m)), hits) over no log-weights
_EMPTY = (-math.inf, 0.0, 0.0, 0)


def _fold(a: tuple, b: tuple) -> tuple:
    """Merge two log-weight sums by rescaling both to the larger max."""
    top = max(a[0], b[0])
    if top == -math.inf:
        return (top, 0.0, 0.0, a[3] + b[3])
    ea, eb = math.exp(a[0] - top), math.exp(b[0] - top)
    return (top, a[1] * ea + b[1] * eb, a[2] * ea * ea + b[2] * eb * eb,
            a[3] + b[3])


def _is_batch(table: CdfTable, rng: np.random.Generator, rows: int, n: int,
              t: float, n_log_phi: float, na: float) -> tuple:
    """One batch of importance draws, each row block reduced to the sums of
    its hits' weights and folded in stream order (see _EMPTY)."""
    def scan(x):
        sums = x.sum(axis=1)
        logw = n_log_phi - t * sums[sums >= na]
        if not logw.size:
            return _EMPTY
        top = logw.max()
        e = np.exp(logw - top)
        return float(top), float(e.sum()), float((e * e).sum()), e.size

    return functools.reduce(_fold, table.row_blocks(n, rng, rows, scan),
                            _EMPTY)


def tail_prob_is_oracle(d: LightTailDensity, n: int, a: float,
                        samples: int = 10 ** 6, seed: int = 0,
                        threads: int = 1) -> ISOracleResult:
    """Importance-sampling estimate of P(S_n >= n a) under the a-tilted law.

    Each row is an iid n-vector from pi_a; the self-normalized weight of a
    hit is exp(n log phi(t) - t S).  Each row block is reduced to its hits'
    max log-weight and the sums of w and w^2 scaled by it; blocks merge in
    stream order and batches in index order, each rescaled to the running
    max, so the estimate and its relative standard error survive
    probabilities far below the double floor, and memory holds a block of
    draws per thread whatever `samples` is.  Deterministic for a fixed seed
    regardless of thread count: every batch of BATCH_ROWS rows owns a
    SeedSequence child keyed by its index.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if samples < 1000:
        raise DomainError("need at least 1000 importance samples")
    td = tilt_to_mean(d, a)
    table = sampler_tilted(td)
    na = n * a
    n_log_phi = n * td.log_phi
    counts = [min(BATCH_ROWS, samples - lo)
              for lo in range(0, samples, BATCH_ROWS)]
    children = np.random.SeedSequence(seed).spawn(len(counts))

    def run(i: int):
        rng = np.random.default_rng(children[i])
        return _is_batch(table, rng, counts[i], n, td.t, n_log_phi, na)

    if threads > 1 and len(counts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(run, range(len(counts))))
    else:
        parts = [run(i) for i in range(len(counts))]

    top, s1, s2, hits = functools.reduce(_fold, parts, _EMPTY)
    if hits == 0:
        raise DegenerateWeights("no exceedances: tilt missed the event")
    lse1 = top + math.log(s1)  # log sum w
    lse2 = 2.0 * top + math.log(s2)  # log sum w^2
    log_p = lse1 - math.log(samples)
    ess = math.exp(2.0 * lse1 - lse2)
    if ess < ESS_FLOOR:
        raise DegenerateWeights(
            f"effective sample size {ess:.1f} < {ESS_FLOOR:g}: weights too "
            "uneven")
    # var(mean) = (E w^2 - (E w)^2)/N computed stably in log space
    log_m2 = lse2 - math.log(samples)
    log_mean = log_p
    ratio = math.exp(log_m2 - 2.0 * log_mean)  # (mean of w^2) / (mean of w)^2
    var_over_p2 = max(ratio / samples - 1.0 / samples, 0.0)
    rel_se = math.sqrt(var_over_p2)
    return ISOracleResult(n=n, a=a, samples=samples, log_prob=log_p,
                          rel_se=rel_se, ess=ess,
                          hit_fraction=hits / samples, seed=seed,
                          batches=len(counts))
