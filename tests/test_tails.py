"""Saddlepoint tail probabilities: rate function against a derivative-free
Legendre oracle, approximation against importance-sampling quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from scipy.special import logsumexp

from exdev import (
    AsymptoticRangeWarning,
    DegenerateWeights,
    DomainError,
    NotSolvable,
    invert_m,
    rate_I,
    sampler_tilted,
    tail_prob,
    tail_prob_is_oracle,
    tilt_to_mean,
    weibull,
)
from exdev import tails
from exdev.tilting import density_mean

from helpers import golden_max, ks_statistic, simpson_integral


def _simpson_log_mgf(d, t, x_hi, points=200_001):
    val = simpson_integral(lambda x: np.exp(t * x + d.log_pdf(x)), 0.0, x_hi,
                           points=points)
    return math.log(val)


# --- rate function -----------------------------------------------------------

def test_rate_vanishes_at_base_mean(weibull2, dexp):
    for d in (weibull2, dexp):
        mean0 = density_mean(d)
        assert rate_I(d, mean0 + 1e-9) == pytest.approx(0.0, abs=1e-7)


def test_rate_against_golden_section_legendre(weibull2):
    # I(a) = sup_t (a t - log phi(t)); the oracle maximizes by golden section
    # with its own Simpson log-mgf, independent of the Newton inversion
    for a in np.linspace(1.5, 8.0, 6):
        t_guess = float(weibull2.h(a))
        x_hi = a + 12.0
        oracle_t, oracle_val = golden_max(
            lambda t: a * t - _simpson_log_mgf(weibull2, t, x_hi),
            0.05 * t_guess, 3.0 * t_guess + 1.0)
        assert rate_I(weibull2, a) == pytest.approx(oracle_val, rel=1e-8)


def test_rate_is_convex(weibull3):
    a = np.linspace(1.2, 10.0, 15)
    I = np.array([rate_I(weibull3, float(v)) for v in a])
    mid = np.array([rate_I(weibull3, float(v)) for v in 0.5 * (a[:-1] + a[1:])])
    assert np.all(mid <= 0.5 * (I[:-1] + I[1:]) + 1e-12)
    # increasing beyond the mean
    assert np.all(np.diff(I) > 0.0)


# --- saddlepoint estimate -------------------------------------------------------

def test_tail_prob_formula_identity(weibull2):
    est = tail_prob(weibull2, 10, 3.0)
    c = invert_m(weibull2, 3.0)
    expected = -10.0 * rate_I(weibull2, 3.0) - math.log(
        math.sqrt(2.0 * math.pi * 10.0) * c.t * c.s)
    assert est.log_prob == pytest.approx(expected, rel=1e-12)
    assert est.lambda_n == pytest.approx(math.sqrt(10.0) * c.t * c.s, rel=1e-12)
    assert est.lambda_ok


def test_tail_prob_warns_outside_asymptotic_range(weibull2):
    with pytest.warns(AsymptoticRangeWarning):
        est = tail_prob(weibull2, 1, 1.2)
    assert not est.lambda_ok
    assert math.isfinite(est.log_prob)


def test_tail_prob_n1_against_quadrature(weibull2):
    # P(X >= a) directly; the saddlepoint carries an O(1/lambda^2) relative error
    a = 4.0
    exact = simpson_integral(lambda x: weibull2.pdf(x), a, a + 10.0, points=400_001)
    est = tail_prob(weibull2, 1, a)
    assert est.lambda_ok
    assert est.prob == pytest.approx(exact, rel=0.10)


def test_tail_prob_monotone_in_a(weibull3):
    probs = [tail_prob(weibull3, 20, a).log_prob for a in (1.5, 2.0, 2.5)]
    assert probs[0] > probs[1] > probs[2]


def test_tail_prob_rejects_bad_inputs(weibull2):
    with pytest.raises(DomainError):
        tail_prob(weibull2, 0, 3.0)
    with pytest.raises(NotSolvable):
        tail_prob(weibull2, 10, 0.1)


# --- importance-sampling oracle ---------------------------------------------------

def test_is_oracle_matches_quadrature_n1(weibull2):
    a = 2.5
    exact = simpson_integral(lambda x: weibull2.pdf(x), a, a + 10.0, points=400_001)
    res = tail_prob_is_oracle(weibull2, 1, a, samples=200_000, seed=11)
    # log-scale agreement within 3 standard errors plus table bias allowance
    assert res.log_prob == pytest.approx(math.log(exact),
                                         abs=3.0 * res.rel_se + 2e-3)
    assert res.ess > 1000.0
    assert 0.3 < res.hit_fraction < 0.7


def test_is_oracle_agrees_with_saddlepoint(weibull2):
    est = tail_prob(weibull2, 10, 3.0)
    res = tail_prob_is_oracle(weibull2, 10, 3.0, samples=400_000, seed=3)
    assert abs(res.log_prob - est.log_prob) < max(0.1, 3.0 * res.rel_se + 0.02)


def test_is_oracle_deterministic_and_thread_invariant(weibull2):
    r1 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=100_000, seed=42, threads=1)
    r2 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=100_000, seed=42, threads=4)
    assert r1.log_prob == r2.log_prob
    assert r1.rel_se == r2.rel_se
    r3 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=100_000, seed=43)
    assert r3.log_prob != r1.log_prob


def test_is_oracle_thread_invariant_over_concurrent_batches(weibull2):
    # three batches, so two threads sample from one table at the same time
    r1 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=600_000, seed=7, threads=1)
    r2 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=600_000, seed=7, threads=2)
    assert r1.batches == r2.batches == 3
    assert (r1.log_prob, r1.rel_se, r1.ess, r1.hit_fraction) == \
        (r2.log_prob, r2.rel_se, r2.ess, r2.hit_fraction)


def test_is_oracle_se_scales_with_samples(weibull2):
    r1 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=100_000, seed=5)
    r4 = tail_prob_is_oracle(weibull2, 5, 2.5, samples=400_000, seed=5)
    assert r4.rel_se == pytest.approx(r1.rel_se / 2.0, rel=0.4)


def test_is_oracle_rejects_tiny_budget(weibull2):
    with pytest.raises(DomainError):
        tail_prob_is_oracle(weibull2, 5, 2.5, samples=100)


def test_is_oracle_refuses_weights_below_the_ess_floor():
    # 1000 rows at n = 256 leave a weight ESS near 2
    with pytest.raises(DegenerateWeights, match=f"< {tails.ESS_FLOOR:g}:"):
        tail_prob_is_oracle(weibull(2.5), 256, 256 ** 0.4, samples=1000)


def test_is_oracle_rejects_empty_rows(weibull2):
    # as tail_prob does; a row of no draws has no block size
    with pytest.raises(DomainError):
        tail_prob_is_oracle(weibull2, 0, 2.5, samples=2000)


def test_is_oracle_log_sums_equal_scipy_logsumexp(weibull2):
    # the hit log-weights of the oracle's own batch streams, kept whole
    n, a, samples, seed = 10, 3.0, 300_000, 4  # two batches
    td = tilt_to_mean(weibull2, a)
    table = sampler_tilted(td)

    def hit_log_weights(x):
        sums = x.sum(axis=1)
        return n * td.log_phi - td.t * sums[sums >= n * a]

    counts = [tails.BATCH_ROWS, samples - tails.BATCH_ROWS]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    logw = np.concatenate([
        w for child, rows in zip(children, counts)
        for w in table.row_blocks(n, np.random.default_rng(child), rows,
                                  hit_log_weights)])
    lse1, lse2 = float(logsumexp(logw)), float(logsumexp(2.0 * logw))
    res = tail_prob_is_oracle(weibull2, n, a, samples=samples, seed=seed)
    assert res.batches == 2
    assert res.hit_fraction == logw.size / samples
    # folding block by block sums in another order than one pass over all
    # weights: the log-sums may differ by a few ulps, no more
    bound = 4.0 * math.ulp(max(abs(lse1), abs(lse2)))
    assert abs(res.log_prob - (lse1 - math.log(samples))) <= bound
    assert abs(math.log(res.ess) - (2.0 * lse1 - lse2)) <= bound


def test_is_oracle_memory_does_not_grow_with_samples():
    # each row block is folded into running sums; keeping every hit's
    # log-weight until the end peaked at 26 MB at 3.2e6 samples.  The first
    # call runs untraced, so one-time costs stay out of the peaks
    d = weibull(2)
    tail_prob_is_oracle(d, 10, 3.0, samples=10_000)
    peaks = []
    for samples in (400_000, 3_200_000):
        tracemalloc.start()
        try:
            tail_prob_is_oracle(d, 10, 3.0, samples=samples, threads=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) < 2 ** 20


# --- tilted inverse-cdf sampler -----------------------------------------------

def test_sampler_tilted_distribution(weibull2):
    td = tilt_to_mean(weibull2, 3.0)
    table = sampler_tilted(td)
    rng = np.random.default_rng(9)
    draws = table.sample(20_000, rng)
    z = simpson_integral(td.pdf, 0.0, 9.0, points=400_001)

    def cdf(q):
        qs = np.atleast_1d(q)
        return np.array([simpson_integral(td.pdf, 0.0, float(v), points=20_001) / z
                         for v in qs])

    ks = ks_statistic(draws, cdf)
    assert ks < 1.95 / math.sqrt(20_000)  # 0.1% two-sided band


def test_sampler_mean_matches_tilt(weibull3):
    td = tilt_to_mean(weibull3, 2.0)
    table = sampler_tilted(td)
    rng = np.random.default_rng(17)
    draws = table.sample(200_000, rng)
    assert float(np.mean(draws)) == pytest.approx(2.0, abs=4.0 * td.s / math.sqrt(200_000))
