"""Multi-chain effective sample size, computed by the benchmark itself.

Rank-normalized bulk ESS of Vehtari, Gelman, Simpson, Carpenter and Buerkner
(2021, Bayesian Analysis 16:667): chains are split in half, the pooled draws
are replaced by normal scores of their ranks, and the autocorrelation is
estimated from the within-chain autocovariances and the between-chain
variance together.  The sum of autocorrelations is truncated by Geyer's
initial positive sequence and made monotone (Geyer 1992, Stat. Sci. 7:473).

The estimate never reads a sampler's own `ess` field, so it can tell a
sampler that retains correlated states from one that retains independent
ones.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split_chains(draws: np.ndarray) -> np.ndarray:
    """(chains, iters) -> (2 chains, iters // 2); an odd middle draw is dropped."""
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half:]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at lags 0..iters-1, by FFT."""
    iters = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * iters - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :iters] / iters


def bulk_ess(draws) -> float:
    """Bulk ESS of `draws`, shaped (chains, iterations), iterations >= 4."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] < 4:
        raise ValueError("need a (chains, iterations >= 4) array")
    x = _rank_normalize(_split_chains(draws))
    chains, iters = x.shape
    acov = _autocovariance(x)
    within = acov[:, 0].mean() * iters / (iters - 1.0)
    var_plus = within * (iters - 1.0) / iters
    if chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: keep lag pairs while their sum stays positive, then force the
    # pair sums to be non-increasing
    pairs = []
    for lag in range(0, iters - 1, 2):
        p = rho[lag] + rho[lag + 1]
        if p <= 0.0:
            break
        pairs.append(min(p, pairs[-1]) if pairs else p)
    tau = -1.0 + 2.0 * sum(pairs)
    total = chains * iters
    tau = max(tau, 1.0 / math.log10(total))
    return float(total / tau)
