"""Conditional samplers and localization checks: exact low-n laws, invariants,
schedule algebra, weighted consistency between the two conditioning modes."""

import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

from exdev import (
    ConditionDescriptor,
    ConditionalSample,
    DLPWindow,
    DomainError,
    ExpTerm,
    LightTailDensity,
    LowAcceptance,
    LowESSWarning,
    MassTooSmall,
    PowerTerm,
    ScheduleInfeasible,
    TooFewSamples,
    TVEstimate,
    density_from_terms,
    dlp_check,
    double_exp,
    epsilon_schedule,
    exceedance_vs_point_equivalence,
    gibbs_local_check,
    location_law_check,
    marginal_tv,
    sample_exceedance_conditional,
    sample_point_conditional,
    sampler_tilted,
    second_order_reference,
    tilt_to_mean,
    weibull,
)
from exdev import conditional, tables, tails

from helpers import ks_statistic, simpson_integral


# --- descriptors ----------------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(DomainError):
        ConditionDescriptor("sum", 4, 1.0)
    with pytest.raises(DomainError):
        ConditionDescriptor("point", 1, 1.0)
    with pytest.raises(DomainError):
        ConditionDescriptor("point", 4, -1.0)
    with pytest.raises(DomainError):
        ConditionDescriptor("exceedance", 4, math.inf)
    assert ConditionDescriptor("point", 8, 2.5).level == pytest.approx(20.0)


# --- point-conditional sampler ----------------------------------------------------

@pytest.mark.parametrize("k, a", [(2.5, 2.0), (3.0, 100.0), (4.0, 100.0)])
def test_point_sampler_n2_exact_law(k, a):
    # for n = 2 the first coordinate given X1 + X2 = 2a has density
    # proportional to p(u) p(2a - u), peaked at a with sd about sigma;
    # compare via KS against quadrature on a +-40 sigma window, fine enough
    # to resolve the peak at extreme levels (sigma = 0.002 at k = 4, a = 100)
    d = weibull(k)
    cond = ConditionDescriptor("point", 2, a)
    sample = sample_point_conditional(d, cond, chains=2048, steps=40,
                                      burn_in=40, seed=5, pool_all=True)
    blocks, _ = sample.tv_blocks()
    draws = blocks.ravel()

    top = 2.0 * float(d.log_pdf(a))
    dens = lambda u: np.exp(d.log_pdf(u) + d.log_pdf(2.0 * a - u) - top)
    sigma = 1.0 / math.sqrt(2.0 * float(d.g_second(a)))
    grid = np.linspace(max(0.0, a - 40.0 * sigma),
                       min(2.0 * a, a + 40.0 * sigma), 4001)
    masses = np.array([simpson_integral(dens, float(grid[i]), float(grid[i + 1]),
                                        points=41) for i in range(len(grid) - 1)])
    cum = np.concatenate([[0.0], np.cumsum(masses)]) / masses.sum()
    cdf = lambda q: np.interp(q, grid, cum)

    ks = ks_statistic(draws, cdf)
    assert ks < 1.63 / math.sqrt(draws.size)  # 1% band, conservative for thinned draws


def test_point_sampler_preserves_sum(weibull2):
    cond = ConditionDescriptor("point", 8, 3.0)
    sample = sample_point_conditional(weibull2, cond, chains=64, steps=32,
                                      burn_in=400, seed=1)
    level = cond.level
    assert sample.residual <= 1e-9 * level
    assert np.max(np.abs(sample.sums - level)) <= 1e-9 * level


def test_point_sampler_exchangeable_coordinates(weibull2):
    cond = ConditionDescriptor("point", 4, 2.0)
    sample = sample_point_conditional(weibull2, cond, chains=512, steps=64,
                                      burn_in=800, seed=2, pool_all=True)
    # pooled rows hold each chain's retained states back to back, n apiece
    states = sample.pooled.reshape(-1, cond.n)
    x1, x2 = states[:, 0], states[:, 1]
    stat = ks_2samp(x1, x2)
    assert stat.pvalue > 0.001


def test_point_sampler_coordinates_positive(weibull3):
    cond = ConditionDescriptor("point", 4, 5.0)
    sample = sample_point_conditional(weibull3, cond, chains=128, steps=32,
                                      burn_in=400, seed=3, pool_all=True)
    blocks, _ = sample.tv_blocks()
    assert np.all(blocks > 0.0)
    assert np.all(blocks < cond.level)


def test_point_sampler_deterministic(weibull2):
    cond = ConditionDescriptor("point", 4, 2.0)
    kw = dict(chains=32, steps=16, burn_in=100)
    s1 = sample_point_conditional(weibull2, cond, seed=7, **kw)
    s2 = sample_point_conditional(weibull2, cond, seed=7, **kw)
    s3 = sample_point_conditional(weibull2, cond, seed=8, **kw)
    np.testing.assert_array_equal(s1.coords, s2.coords)
    assert not np.array_equal(s1.coords, s3.coords)


def test_point_sampler_rejects_exceedance_descriptor(weibull2):
    cond = ConditionDescriptor("exceedance", 4, 2.0)
    with pytest.raises(DomainError):
        sample_point_conditional(weibull2, cond, chains=8, steps=4, burn_in=8)


@pytest.mark.parametrize("make", [
    lambda: density_from_terms((PowerTerm(1.0, 3.0), PowerTerm(-1.5, 2.0))),
], ids=["nonconvex"])
def test_point_sampler_refuses_non_log_concave_pair_law(make):
    # g'' < 0 somewhere (here on x < 1/2) can make the pair law bimodal,
    # outside the rejection step's log-concave domain
    cond = ConditionDescriptor("point", 4, 2.0)
    with pytest.raises(DomainError):
        sample_point_conditional(make(), cond, chains=8, steps=4, burn_in=8)


def test_point_sampler_refuses_levels_past_its_precision(dexp):
    # g(60) = e^59 for double-exp: doubles near 2 g are 1.7e10 apart, so
    # l(w) - l(0) has no digits left and a draw would be wrong or never end
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="precision"):
        sample_point_conditional(dexp, ConditionDescriptor("point", 8, 60.0))
    assert time.perf_counter() - t0 < 1.0
    # the highest level the tilt reaches, m(t_cap) = 24.03, stays admitted
    sample = sample_point_conditional(
        dexp, ConditionDescriptor("point", 2, 24.03), chains=4, steps=2,
        burn_in=0)
    assert sample.residual < 1e-12


# --- pair step bit identity ------------------------------------------------------

def _reference_heat_bath_draw(d, c, rng):
    """The pair step as first written, one numpy call per operation: the
    reference that `conditional._heat_bath_draw` must match bit for bit,
    random stream included."""
    ell = lambda h, w: -(d.g(h + w) + d.g(h - w))
    half = 0.5 * c
    top = -2.0 * d.g(half)
    with np.errstate(divide="ignore"):
        w1 = np.minimum(1.0 / np.sqrt(d.g_second(half)), 0.5 * half)
    slope = d.g_prime(half - w1) - d.g_prime(half + w1)
    flat = slope >= 0.0
    slope = np.where(flat, -1.0, slope)
    drop = ell(half, w1) - top
    z = np.where(flat, half, np.clip(w1 - drop / slope, 0.0, half))
    tail = np.expm1(slope * (half - z)) / slope

    u = np.empty_like(c)
    pending = np.arange(c.size)
    while pending.size:
        hf, zp, sp = half[pending], z[pending], slope[pending]
        pos, acc, sign = rng.random((3, pending.size))
        mass = pos * (zp + tail[pending])
        over = mass > zp
        w = np.where(over, zp + np.log1p(sp * (mass - zp)) / sp, mass)
        env = top[pending] + np.where(over, sp * (w - zp), 0.0)
        ok = acc < np.exp(ell(hf, w) - env)
        u[pending[ok]] = hf[ok] + np.where(sign[ok] < 0.5, w[ok], -w[ok])
        pending = pending[~ok]
    return u


def _reference_point_sample(d, n, a, chains, steps, burn_in, seed):
    """The point sampler's loop as first written, on a (chains, n) state:
    (coords, sums, pooled, residual)."""
    rng = np.random.default_rng(seed)
    x = np.full((chains, n), float(a))
    coords, sums, pooled = [], [], []
    for step in range(burn_in + steps):
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        c = x[:, i] + x[:, j]
        u = _reference_heat_bath_draw(d, c, rng)
        x[:, i] = u
        x[:, j] = c - u
        k = step - burn_in + 1
        if k > 0 and k % n == 0:
            coords.append(x[:, :1].copy())
            sums.append(x.sum(axis=1))
            pooled.append(x.copy())
    sums = np.concatenate(sums)
    residual = float(np.max(np.abs(sums - n * a)) / (n * a))
    pooled = np.stack(pooled).transpose(1, 0, 2).reshape(chains, -1)
    return np.concatenate(coords), sums, pooled, residual


# every term kind: Weibull's power and log terms, the cgtv golden run's exp
# term, the exp-only double exponential, and g = x, whose g'' = 0 makes every
# tangent flat (not a light-tailed density, so built unnormalized: the pair
# step reads only the terms)
PAIR_DENSITIES = {
    "weibull1.5": (lambda: weibull(1.5), (0.3, 2.0, 100.0)),
    "weibull2.5": (lambda: weibull(2.5), (0.3, 2.0, 100.0)),
    "weibull3": (lambda: weibull(3.0), (0.3, 2.0, 100.0)),
    "weibull4": (lambda: weibull(4.0), (0.3, 2.0, 100.0)),
    "double_exp": (double_exp, (0.3, 2.0, 10.0)),
    "cgtv": (lambda: density_from_terms(
        (PowerTerm(1.0, 2.5), ExpTerm(0.1, 0.5))), (0.3, 2.0, 10.0)),
    "flat": (lambda: LightTailDensity(terms=(PowerTerm(1.0, 1.0),), log_c=0.0),
             (0.3, 2.0, 30.0)),
}


@pytest.mark.parametrize("name", list(PAIR_DENSITIES))
def test_pair_step_bit_identical_to_reference(name):
    make, levels = PAIR_DENSITIES[name]
    d = make()
    for a in levels:
        for chains in (1, 2, 48, 1000):
            rng_ref = np.random.default_rng(5)
            rng = np.random.default_rng(5)
            sums = [np.full(chains, 2.0 * a)]  # the sampler's start
            sums += [2.0 * a * rng_ref.uniform(0.05, 1.95, chains)
                     for _ in range(3)]
            rng.uniform(size=3 * chains)  # keep both streams in step
            for c in sums:
                want = _reference_heat_bath_draw(d, c, rng_ref)
                got = conditional._heat_bath_draw(d, c, rng)
                assert np.array_equal(got, want), (a, chains)
            assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("name", ["weibull2.5", "weibull3", "double_exp",
                                  "cgtv"])
def test_point_sampler_bit_identical_to_reference(name):
    d = PAIR_DENSITIES[name][0]()
    n, a, chains, steps, burn_in = 8, 2.0, 48, 64, 80
    sample = sample_point_conditional(
        d, ConditionDescriptor("point", n, a), chains=chains, steps=steps,
        burn_in=burn_in, seed=3, pool_all=True)
    coords, sums, pooled, residual = _reference_point_sample(
        d, n, a, chains, steps, burn_in, seed=3)
    assert np.array_equal(sample.coords, coords)
    assert np.array_equal(sample.sums, sums)
    assert np.array_equal(sample.pooled, pooled)
    assert sample.residual == residual


# --- exceedance sampler ------------------------------------------------------------

def test_exceedance_sampler_invariants(weibull25):
    cond = ConditionDescriptor("exceedance", 16, 2.0)
    sample = sample_exceedance_conditional(weibull25, cond, 20_000, seed=4)
    assert np.all(sample.sums >= cond.level)
    assert np.all(sample.weights > 0.0)
    assert np.all(sample.weights <= 1.0 + 1e-12)
    # tilted sum is centered at the boundary, so acceptance sits near 1/2
    assert 0.35 < sample.acceptance < 0.65
    assert np.all(sample.mins <= sample.coords[:, 0])
    assert np.all(sample.maxs >= sample.coords[:, 0])
    assert sample.ess > 1000.0


def test_exceedance_sampler_budget_cap(weibull2, monkeypatch):
    cond = ConditionDescriptor("exceedance", 8, 2.0)
    monkeypatch.setattr(conditional, "MAX_PROPOSALS", 50_000)
    with pytest.raises(LowAcceptance):
        sample_exceedance_conditional(weibull2, cond, 10**7, seed=0)


def _exceedance_rows(sample):
    return (sample.coords, sample.sums, sample.mins, sample.maxs,
            sample.weights)


def test_exceedance_sample_independent_of_block_size(weibull25, monkeypatch):
    # the kept rows are the first `count` hits of one tilted stream, so
    # splitting the proposals into many small blocks changes no byte
    cond = ConditionDescriptor("exceedance", 8, 2.0)
    wide_rows = tables.BLOCK // 8
    wide = sample_exceedance_conditional(weibull25, cond, 40_000, seed=21)
    assert wide.meta["proposals"] > wide_rows
    monkeypatch.setattr(tables, "BLOCK", 1024)
    narrow = sample_exceedance_conditional(weibull25, cond, 40_000, seed=21)
    assert narrow.meta["proposals"] >= 40 * 1024 // 8
    for x, y in zip(_exceedance_rows(wide), _exceedance_rows(narrow)):
        np.testing.assert_array_equal(x, y)
    assert narrow.acceptance == wide.acceptance
    assert narrow.ess == wide.ess
    # fewer than one block's rows are drawn past the last kept row
    used = round(40_000 / wide.acceptance)
    assert 0 <= wide.meta["proposals"] - used < wide_rows
    assert 0 <= narrow.meta["proposals"] - used < 1024 // 8


def test_exceedance_sample_independent_of_worker_count(weibull25,
                                                      monkeypatch):
    cond = ConditionDescriptor("exceedance", 16, 2.0)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(conditional, "WORKERS", workers)
        runs.append(sample_exceedance_conditional(weibull25, cond, 30_000,
                                                  seed=23))
    one, three = runs
    for x, y in zip(_exceedance_rows(one), _exceedance_rows(three)):
        np.testing.assert_array_equal(x, y)
    assert one.acceptance == three.acceptance and one.ess == three.ess
    assert one.meta["proposals"] == three.meta["proposals"]
    assert one.meta["proposals"] > 10 * tables.BLOCK // 16


def test_exceedance_sampler_memory_is_one_block(weibull25):
    # 40000 rows of 128 draws would be 41 MB; only the kept columns stay
    cond = ConditionDescriptor("exceedance", 128, 2.0)
    tracemalloc.start()
    try:
        sample = sample_exceedance_conditional(weibull25, cond, 40_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.meta["proposals"] * 128 > 5 * tables.BLOCK
    assert peak < 16 * 2 ** 20


def test_exceedance_sample_is_a_prefix(weibull25):
    cond = ConditionDescriptor("exceedance", 16, 2.0)
    small = sample_exceedance_conditional(weibull25, cond, 3_000, seed=22)
    large = sample_exceedance_conditional(weibull25, cond, 20_000, seed=22)
    for x, y in zip(_exceedance_rows(small), _exceedance_rows(large)):
        np.testing.assert_array_equal(x, y[:3_000])


def test_exceedance_sampler_draws_few_spare_rows(weibull25):
    # about half the tilted rows clear the level, so 2 count rows suffice
    cond = ConditionDescriptor("exceedance", 16, 2.0)
    sample = sample_exceedance_conditional(weibull25, cond, 20_000, seed=4)
    assert sample.meta["proposals"] <= 2.5 * 20_000


def test_exceedance_matches_rejection_oracle(weibull2):
    # weighted mean of X1 given the exceedance must match a plain rejection
    # sampler built from the untilted density
    n, a = 3, 1.15
    cond = ConditionDescriptor("exceedance", n, a)
    sample = sample_exceedance_conditional(weibull2, cond, 60_000, seed=6)
    w = sample.weights / sample.weights.sum()
    mean_is = float(np.dot(w, sample.coords[:, 0]))
    var_is = float(np.dot(w, (sample.coords[:, 0] - mean_is) ** 2))
    se_is = math.sqrt(var_is / sample.ess)

    td0 = tilt_to_mean(weibull2, 1.05 * float(np.mean(sample.coords[:, 0])))
    # rejection from the BASE law: tilt 0 table
    base_table = sampler_tilted(tilt_to_mean(
        weibull2, weibull2_mean := 0.8862269254527584))
    rng = np.random.default_rng(123)
    kept = []
    for _ in range(40):
        block = base_table.sample(200_000 * n, rng).reshape(-1, n)
        s = block.sum(axis=1)
        kept.append(block[s >= n * a, 0])
        if sum(len(k) for k in kept) > 50_000:
            break
    ref = np.concatenate(kept)
    mean_rej = float(np.mean(ref))
    se_rej = float(np.std(ref) / math.sqrt(len(ref)))
    assert abs(mean_is - mean_rej) < 4.0 * math.hypot(se_is, se_rej) + 2e-3
    del td0


# --- marginal TV -------------------------------------------------------------------

def test_tv_estimate_interval_invariant():
    est = TVEstimate(tv=0.1, ci_low=0.05, ci_high=0.2, bins=30, sample_size=1000)
    assert est.ci_low <= est.tv <= est.ci_high
    with pytest.raises(DomainError):
        TVEstimate(tv=0.3, ci_low=0.4, ci_high=0.5, bins=30, sample_size=1000)
    with pytest.raises(DomainError):
        TVEstimate(tv=1.2, ci_low=0.0, ci_high=1.3, bins=30, sample_size=1000)


def test_tv_null_floor(weibull25):
    # iid draws from the reference itself: TV estimate is pure noise floor
    td = tilt_to_mean(weibull25, 3.0)
    table = sampler_tilted(td)
    rng = np.random.default_rng(21)
    draws = table.sample(100_000, rng)
    sample = ConditionalSample.from_values(draws)
    est = marginal_tv(sample, td.pdf)
    assert est.tv < 0.05
    assert est.ci_low <= est.tv <= est.ci_high
    assert 10 <= est.bins <= 400


def test_tv_detects_wrong_reference(weibull25):
    td = tilt_to_mean(weibull25, 3.0)
    wrong = tilt_to_mean(weibull25, 2.4)
    table = sampler_tilted(td)
    rng = np.random.default_rng(22)
    draws = table.sample(50_000, rng)
    est = marginal_tv(ConditionalSample.from_values(draws), wrong.pdf)
    assert est.tv > 0.2
    assert est.ci_low > 0.1


def test_tv_requires_enough_samples(weibull2):
    td = tilt_to_mean(weibull2, 2.0)
    sample = ConditionalSample.from_values(np.linspace(1.0, 3.0, 500))
    with pytest.raises(TooFewSamples):
        marginal_tv(sample, td.pdf)


def test_tv_requires_enough_units():
    # 1200 values in 2 chains: a bootstrap over two units has three outcomes
    cond = ConditionDescriptor("point", 8, 2.0)
    d = weibull(2.5)
    sample = sample_point_conditional(d, cond, chains=2, steps=4800,
                                      burn_in=400, seed=1)
    assert sample.coords.size == 1200
    with pytest.raises(TooFewSamples, match="2 resampling units"):
        marginal_tv(sample, tilt_to_mean(d, 2.0).pdf)


def test_tv_weighted_exceedance_path(weibull25):
    # first-coordinate law under the exceedance converges to the tilted law
    cond = ConditionDescriptor("exceedance", 64, 2.0)
    sample = sample_exceedance_conditional(weibull25, cond, 30_000, seed=8)
    td = tilt_to_mean(weibull25, 2.0)
    est = marginal_tv(sample, td.pdf)
    assert est.tv < 0.2


def test_tv_pooled_point_path(weibull25):
    cond = ConditionDescriptor("point", 8, 2.5)
    sample = sample_point_conditional(weibull25, cond, chains=256, steps=64,
                                      burn_in=1000, seed=9, pool_all=True)
    td = tilt_to_mean(weibull25, 2.5)
    so = second_order_reference(weibull25, 8, 2.5)
    est_tilt = marginal_tv(sample, td.pdf)
    est_so = marginal_tv(sample, so.pdf)
    # the Gaussian-corrected reference fits the finite-n marginal better
    assert est_so.tv < est_tilt.tv
    assert est_so.tv < 0.1
    # and so does the exact marginal, which the sampler draws from
    est_exact = marginal_tv(
        sample, lambda y: gibbs_local_check(weibull25, cond, y).density)
    assert est_exact.tv < est_tilt.tv


def _gibbs_sample(values, chains):
    """A point-sampler-shaped sample: coords time-major, `chains` per state."""
    coords = np.asarray(values, dtype=float).reshape(-1, 1)
    return ConditionalSample(coords=coords, sums=coords[:, 0].copy(),
                             meta={"chains": chains})


def test_tv_resamples_chains_not_rows(weibull25):
    # 50 chains that each sit at one value for 40 retained states: the chains
    # are the independent units, so resampling them must give a far wider
    # interval than resampling the 2000 rows, for the same point estimate
    td = tilt_to_mean(weibull25, 3.0)
    levels = sampler_tilted(td).sample(50, np.random.default_rng(31))
    values = np.tile(levels, 40)  # time-major: state k holds every chain
    chains = marginal_tv(_gibbs_sample(values, 50), td.pdf)
    rows = marginal_tv(ConditionalSample.from_values(values), td.pdf)
    assert chains.tv == rows.tv
    assert (chains.ci_high - chains.ci_low
            > 3.0 * (rows.ci_high - rows.ci_low))


def _direct_tv(values, weights, bins, pdf):
    """The binned TV of marginal_tv computed directly: np.histogram for
    counts, np.bincount for weights."""
    lo_q, hi_q = np.percentile(values, [0.01, 99.99])
    pad = 0.05 * (hi_q - lo_q) + 1e-12
    edges = np.linspace(max(0.0, lo_q - pad), hi_q + pad, bins + 1)
    ref = conditional._reference_bin_masses(pdf, edges)
    if weights is None:
        hist, _ = np.histogram(values, bins=edges)
        hist = np.append(hist, values.size - hist.sum())
        total = values.size
    else:
        idx = np.searchsorted(edges, values, side="right") - 1
        idx = np.where((idx >= 0) & (idx < bins), idx, bins)
        hist = np.bincount(idx, weights, bins + 1)
        total = weights.sum()
    return 0.5 * (np.abs(hist[:bins] / total - ref).sum() + hist[bins] / total
                  + max(0.0, 1.0 - ref.sum()))


def test_tv_point_estimate_is_direct_histogram(weibull25):
    # the bootstrap groups values by unit; the point estimate must still be
    # the plain histogram of all values, bit for bit, for every sample kind
    td = tilt_to_mean(weibull25, 2.5)
    rng = np.random.default_rng(32)
    draws = sampler_tilted(td).sample(3000, rng)
    weights = rng.random(3000)
    pooled = sample_point_conditional(
        weibull25, ConditionDescriptor("point", 8, 2.5), chains=64,
        steps=160, burn_in=400, seed=33, pool_all=True)
    gibbs = dataclasses.replace(pooled, pooled=None)  # time-major coords
    exceed = sample_exceedance_conditional(
        weibull25, ConditionDescriptor("exceedance", 8, 2.5), 3000, seed=34)
    cases = [
        (ConditionalSample.from_values(draws), draws, None),
        (ConditionalSample.from_values(draws, weights=weights), draws, weights),
        (exceed, exceed.coords[:, 0], exceed.weights),
        (gibbs, gibbs.coords[:, 0], None),
        (pooled, pooled.pooled.ravel(), None),
    ]
    for sample, values, w in cases:
        est = marginal_tv(sample, td.pdf)
        assert est.sample_size == values.size
        assert est.tv == _direct_tv(values, w, est.bins, td.pdf)


def _sparse_tv(sample, pdf, seed=7):
    """(tv, ci_low, ci_high) of marginal_tv with each block of bootstrap
    histograms taken as one scipy csr_array (bins x units) product."""
    from scipy.sparse import csr_array
    blocks, weights = sample.tv_blocks()
    vals = np.sort(blocks, axis=1)
    units, size = vals.shape[0], vals.size
    lo_q, hi_q, q75, q25 = np.percentile(vals, [0.01, 99.99, 75.0, 25.0])
    pad = 0.05 * (hi_q - lo_q) + 1e-12
    lo, hi = max(0.0, lo_q - pad), hi_q + pad
    nb = conditional._fd_bin_count(q75 - q25, size, lo, hi)
    edges = np.linspace(lo, hi, nb + 1)
    ref_mass = conditional._reference_bin_masses(pdf, edges)
    ref_out = max(0.0, 1.0 - ref_mass.sum())
    key = np.searchsorted(edges, vals, side="right")
    key = (key + (nb + 2) * np.arange(units)[:, None]).ravel()
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    unit, slot = np.divmod(key[first], nb + 2)
    mass = np.diff(first, append=size) * weights[unit]
    per_bin = csr_array((mass, ((slot - 1) % (nb + 1), unit)),
                        shape=(nb + 1, units))
    unit_mass = np.bincount(unit, mass, units)

    def tv_of(copies):
        hist = np.ascontiguousarray((per_bin @ copies.T).T)
        p = hist / (copies * unit_mass).sum(axis=1)[:, None]
        return 0.5 * (np.abs(p[:, :nb] - ref_mass).sum(axis=1)
                      + p[:, nb] + ref_out)

    tv = tv_of(np.ones((1, units)))[0]
    rng = np.random.default_rng(seed)
    block = max(1, 2 ** 16 // units)
    draws = []
    for start in range(0, conditional.TV_BOOTSTRAP, block):
        copies = [np.bincount(rng.integers(0, units, units), minlength=units)
                  for _ in range(min(block, conditional.TV_BOOTSTRAP - start))]
        draws.extend(tv_of(np.array(copies, dtype=float)))
    lo_ci, hi_ci = np.percentile(draws, [2.5, 97.5])
    return tv, min(lo_ci, tv), min(max(hi_ci, tv), 1.0)


def test_tv_bootstrap_equals_sparse_product(weibull25):
    # each replicate's bincount adds the same products in the same (unit)
    # order as a sparse (bins x units) product, so the estimate and its
    # interval are those of scipy's csr_array bit for bit
    td = tilt_to_mean(weibull25, 2.5)
    cases = [sample_point_conditional(
        weibull25, ConditionDescriptor("point", n, 2.5), chains=chains,
        burn_in=200, seed=40 + n) for n, chains in
        ((8, 48), (32, 48), (128, 48), (8, 512))]
    cases.append(sample_exceedance_conditional(
        weibull25, ConditionDescriptor("exceedance", 8, 2.5), 20_000,
        seed=41))
    for sample in cases:
        est = marginal_tv(sample, td.pdf)
        assert (est.tv, est.ci_low, est.ci_high) == _sparse_tv(sample,
                                                               td.pdf)


# --- second-order reference ----------------------------------------------------------

def test_second_order_normalized(weibull25):
    so = second_order_reference(weibull25, 16, 2.0)
    assert math.isfinite(so.log_C)
    mass = simpson_integral(so.pdf, 0.0, 8.0, points=200_001)
    assert mass == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("a", [1e4, 1e8, 1e10, 1e12])
def test_second_order_normalized_at_high_levels(a):
    # it reads the tilted law's centered log-density; an uncentered copy
    # integrated to 0.91 at a = 1e10 and to 2.6e51 at 1e12
    so = second_order_reference(weibull(1.5), 64, a)
    s = so.td.s
    mass = simpson_integral(so.pdf, a - 40.0 * s, a + 40.0 * s)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_second_order_approaches_tilted(weibull25):
    # TV(second-order, tilted) by quadrature must shrink as n grows
    a = 2.0
    td = tilt_to_mean(weibull25, a)
    tvs = []
    for n in (8, 32, 128):
        so = second_order_reference(weibull25, n, a)
        tv = 0.5 * simpson_integral(lambda y: np.abs(so.pdf(y) - td.pdf(y)),
                                    0.0, 8.0, points=100_001)
        tvs.append(tv)
    assert tvs[2] < tvs[1] < tvs[0]
    assert tvs[2] < 0.05


# --- localization schedule ------------------------------------------------------------

def test_epsilon_schedule_criterion_value():
    for k, n, alpha in ((2.5, 10**4, 0.4), (3.0, 10**3, 0.3), (2.0, 10**5, 0.2)):
        a = float(n) ** alpha
        win = epsilon_schedule(k, n, a)
        assert win.criterion_value == pytest.approx(n ** -0.2, rel=1e-10)
        assert win.window == (a - win.epsilon_n, a + win.epsilon_n)
        assert win.epsilon_n == pytest.approx(
            n ** 0.1 * math.sqrt(n * math.log(a) / a ** (k - 2.0)), rel=1e-12)


def test_epsilon_schedule_feasibility_flag():
    win = epsilon_schedule(2.5, 10**4, 10.0)
    assert not win.feasible
    with pytest.raises(ScheduleInfeasible):
        epsilon_schedule(2.5, 10**4, 10.0, strict=True)
    # steep tails with fast levels shrink the window below the level
    win2 = epsilon_schedule(4.0, 10**4, float(10**4) ** 0.45)
    assert win2.feasible
    assert win2.epsilon_n / win2.a_n < 1.0


def test_epsilon_schedule_validation():
    with pytest.raises(DomainError):
        epsilon_schedule(1.0, 100, 5.0)
    with pytest.raises(DomainError):
        epsilon_schedule(2.5, 100, 2.0)  # a_n <= e
    with pytest.raises(DomainError):
        epsilon_schedule(2.5, 1, 5.0)


# --- democratic localization -----------------------------------------------------------

def test_dlp_estimate_monotone_in_window(weibull25):
    n = 64
    a = float(n) ** 0.4
    cond = ConditionDescriptor("exceedance", n, a)
    sample = sample_exceedance_conditional(weibull25, cond, 20_000, seed=10)
    win = epsilon_schedule(2.5, n, a)
    base = dlp_check(weibull25, cond, win, sample=sample)
    wide = DLPWindow(epsilon_n=10 * win.epsilon_n,
                     window=(a - 10 * win.epsilon_n, a + 10 * win.epsilon_n),
                     criterion_value=win.criterion_value / 100.0, k=win.k,
                     n=n, a_n=a, feasible=win.feasible)
    narrow = DLPWindow(epsilon_n=1e-6, window=(a - 1e-6, a + 1e-6),
                       criterion_value=1.0, k=win.k, n=n, a_n=a, feasible=True)
    est_wide = dlp_check(weibull25, cond, wide, sample=sample)
    est_narrow = dlp_check(weibull25, cond, narrow, sample=sample)
    assert est_wide.estimate >= base.estimate
    assert est_narrow.estimate == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= base.estimate <= 1.0
    assert base.precondition_value > 0.1


def test_dlp_estimate_exact_when_every_row_inside(weibull25):
    # criterion 08's n=256 sample: a dot product of normalized weights gave
    # 0.9999999999999998 here, though every row lies inside the window
    n = 256
    a = float(n) ** 0.4
    cond = ConditionDescriptor("exceedance", n, a)
    sample = sample_exceedance_conditional(weibull25, cond, 20_000, seed=17)
    lo, hi = float(sample.mins.min()) - 1.0, float(sample.maxs.max()) + 1.0
    all_in = DLPWindow(epsilon_n=max(a - lo, hi - a), window=(lo, hi),
                       criterion_value=1.0, k=2.5, n=n, a_n=a, feasible=False)
    est = dlp_check(weibull25, cond, all_in, sample=sample)
    assert est.estimate == 1.0
    assert est.se == 0.0
    sched = dlp_check(weibull25, cond, epsilon_schedule(2.5, n, a),
                      sample=sample)
    assert 0.0 <= sched.estimate <= 1.0


def test_dlp_warns_once_below_the_ess_floor(weibull25):
    # 2000 rows at n = 64 keep a weight ESS near 35; 20000 at n = 16, 1673
    n = 64
    a = float(n) ** 0.4
    cond = ConditionDescriptor("exceedance", n, a)
    sample = sample_exceedance_conditional(weibull25, cond, 2000, seed=17)
    with pytest.warns(LowESSWarning, match="n=64") as caught:
        est = dlp_check(weibull25, cond, epsilon_schedule(2.5, n, a),
                        sample=sample)
    assert len(caught) == 1
    assert est.ess < tails.ESS_FLOOR
    cond = ConditionDescriptor("exceedance", 16, 16.0 ** 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dlp_check(weibull25, cond, epsilon_schedule(2.5, 16, 16.0 ** 0.4),
                  count=20_000, seed=17)


def test_dlp_precondition_guard(weibull25):
    cond = ConditionDescriptor("exceedance", 64, 64.0 ** 0.4)
    win = epsilon_schedule(2.5, 64, 64.0 ** 0.4)
    with pytest.raises(DomainError):
        dlp_check(weibull25, cond, win, delta=50.0)


# --- exact point-conditional marginal ------------------------------------------------------

def _exact_marginal(d, n, a):
    """y over the tilted bulk (a +- 40 s, cut at 0) and the exact law of X_1
    given S_n = n a on it."""
    td = tilt_to_mean(d, a)
    y = np.linspace(max(0.0, a - 40.0 * td.s), a + 40.0 * td.s, 20_001)
    return y, gibbs_local_check(d, ConditionDescriptor("point", n, a), y)


def _tv(y, p, q):
    return 0.5 * np.trapezoid(np.abs(p - q), y)


def test_gibbs_local_ratio_near_one(weibull25):
    # the leave-one-out density flattens at rate 1/(n-1) on the tilted bulk:
    # with a Gaussian r_{n-1} the ratio at y = a is 1 + 1/(2(n-1)) to first
    # order, and the second-order terms are O(1/(n-1)^2)
    n, a = 16, 2.0
    cond = ConditionDescriptor("point", n, a)
    td = tilt_to_mean(weibull25, a)
    y = a + td.s * np.array([-1.0, 0.0, 1.0])
    rep = gibbs_local_check(weibull25, cond, y)
    assert abs(rep.ratio[1] - (1.0 + 0.5 / (n - 1))) < 0.25 / (n - 1) ** 2
    assert rep.ratio[1] > max(rep.ratio[0], rep.ratio[2])
    assert np.all(np.abs(rep.ratio - 1.0) < 0.05)
    np.testing.assert_array_equal(rep.reference, td.pdf(y))
    with pytest.raises(DomainError):
        gibbs_local_check(weibull25, ConditionDescriptor("exceedance", n, a),
                          y)


@pytest.mark.parametrize("a", [1.27, 2.0, 5.0])
def test_gibbs_local_n2_matches_quadrature(weibull25, a):
    # n = 2: X_1 given X_1 + X_2 = 2a has density p(y) p(2a - y) / Z
    td = tilt_to_mean(weibull25, a)
    y = np.linspace(max(0.0, a - 12.0 * td.s), min(2.0 * a, a + 12.0 * td.s),
                    4001)
    rep = gibbs_local_check(weibull25, ConditionDescriptor("point", 2, a), y)
    top = 2.0 * float(weibull25.log_pdf(a))
    dens = lambda u: np.exp(weibull25.log_pdf(u)
                            + weibull25.log_pdf(2.0 * a - u) - top)
    quad = dens(y) / simpson_integral(dens, 0.0, 2.0 * a, points=400_001)
    assert np.max(np.abs(rep.density - quad)) < 1e-6 * quad.max()


@pytest.mark.parametrize("a", [1.27, 2.0])
@pytest.mark.parametrize("make", [lambda: weibull(1.5), double_exp],
                         ids=["weibull1.5", "double_exp"])
def test_gibbs_local_n2_exact_at_an_edge(make, a):
    # a kink (x^0.5) or jump of pi_t at 0 reaches the n = 2 law at y = 2a;
    # taken from a convolution grid it was off by 0.37% and 6.2% of the
    # peak at a = 1.27 (measured 1.5e-7 and 7e-10 now)
    d = make()
    td = tilt_to_mean(d, a)
    y = np.linspace(max(0.0, a - 12.0 * td.s), min(2.0 * a, a + 12.0 * td.s),
                    4001)
    rep = gibbs_local_check(d, ConditionDescriptor("point", 2, a), y)
    top = 2.0 * float(d.log_pdf(a))
    dens = lambda u: np.exp(d.log_pdf(u) + d.log_pdf(2.0 * a - u) - top)
    quad = dens(y) / simpson_integral(dens, 0.0, 2.0 * a, points=400_001)
    assert np.max(np.abs(rep.density - quad)) < 1e-6 * quad.max()
    beyond = gibbs_local_check(d, ConditionDescriptor("point", 2, a),
                               [2.0 * a + td.s])
    assert beyond.ratio[0] == 0.0


@pytest.mark.parametrize("make", [
    lambda: weibull(1.5), lambda: weibull(2.5), lambda: weibull(4.0),
    double_exp], ids=["weibull1.5", "weibull2.5", "weibull4", "double_exp"])
def test_exact_tv_rate_constant(make):
    # n sqrt(2 pi e) TV(exact, pi_t) -> 1 whatever the density: 1/(n
    # sqrt(2 pi e)) is the TV between N(0, 1) and N(0, (n-1)/n)
    d = make()
    for n in (512, 4096):
        y, rep = _exact_marginal(d, n, n ** 0.35)
        tv = _tv(y, rep.density, rep.reference)
        assert abs(n * math.sqrt(2.0 * math.pi * math.e) * tv - 1.0) < 0.01, n


def test_second_order_reference_close_to_exact(weibull25):
    # the Gaussian-corrected reference sits at least 10x closer to the exact
    # marginal than the tilted law does (measured 21-73x)
    for n in (8, 32, 128, 512):
        a = n ** 0.35
        y, rep = _exact_marginal(weibull25, n, a)
        so = second_order_reference(weibull25, n, a)
        assert (10.0 * _tv(y, rep.density, so.pdf(y))
                < _tv(y, rep.density, rep.reference)), n


# --- tilted location law --------------------------------------------------------------------

def test_location_law_sharpens(weibull3):
    # exact, so the KS keeps ordering far past the 1/sqrt(draws) floor of a
    # sampled estimate (measured 9.3e-3 at a = 1.5 down to 4.9e-6 at 320)
    rep = location_law_check(weibull3, (1.5, 5.0, 20.0, 80.0, 320.0))
    assert np.all(np.diff(rep.ks) < 0.0)
    assert np.all(np.diff(rep.s) < 0.0)
    assert rep.ks[-1] < 1e-5


@pytest.mark.parametrize("a", [1.5, 20.0, 320.0])
def test_location_law_matches_dense_cdf(weibull3, a):
    # the max over the table's knots is the sup of |F - Phi| of a dense
    # 400,001-point CDF of the tilted density
    td = tilt_to_mean(weibull3, a)
    table = sampler_tilted(td)
    x = np.linspace(table.x[0], table.x[-1], 400_001)
    f = td.pdf(x)
    F = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
    dense = np.max(np.abs(F / F[-1] - ndtr((x - a) / td.s)))
    rep = location_law_check(weibull3, a)
    assert abs(rep.ks[0] - dense) < 1e-6


@pytest.mark.parametrize("k, a", [(1.5, 1e6), (1.5, 1e8), (1.5, 1e10),
                                  (1.5, 1e12), (1.5, 1e13), (1.5, 1e14),
                                  (2.5, 1e4), (2.5, 1e5), (2.5, 1e6)])
def test_location_law_at_high_levels_sits_on_the_table_floor(k, a):
    # the table's own floor from its knots is about 1.3e-6; the uncentered
    # law read 1.9e-3 at 1e10 and 0.375 at 1e12 (k = 1.5), 3.6e-3 at 1e6
    # (k = 2.5), and failed to build at 1e13
    assert location_law_check(weibull(k), a).ks[0] <= 2e-6


def test_location_law_k2_variance_order_one(weibull2):
    rep = location_law_check(weibull2, (10.0, 40.0))
    # h' -> 2 for the quadratic exponent, so s^2 -> 1/2 instead of shrinking
    np.testing.assert_allclose(rep.s, 1.0 / math.sqrt(2.0), rtol=0.02)
    assert not np.all(np.diff(rep.s) < 0.0)


# --- exceedance vs point equivalence ----------------------------------------------------------

def test_equivalence_full_line_ratio_one(weibull25):
    rep = exceedance_vs_point_equivalence(weibull25, 64, 2.0,
                                          [(0.0, 50.0)], count=20_000, seed=14)
    row = rep.rows[0]
    assert row.p_exceedance == pytest.approx(1.0, abs=1e-12)
    assert row.ratio == pytest.approx(1.0, abs=5e-3)
    assert 0.35 < rep.acceptance < 0.65


def test_equivalence_warns_below_the_ess_floor(weibull25):
    # 500 rows keep a weight ESS near 34, 2000 rows one near 147
    with pytest.warns(LowESSWarning) as caught:
        rep = exceedance_vs_point_equivalence(weibull25, 64, 2.0,
                                              [(0.0, 50.0)], count=500,
                                              seed=14)
    assert len(caught) == 1
    assert rep.ess < tails.ESS_FLOOR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exceedance_vs_point_equivalence(weibull25, 64, 2.0, [(0.0, 50.0)],
                                        count=2000, seed=14)


def test_equivalence_starved_interval_raises(weibull25):
    with pytest.raises(MassTooSmall):
        exceedance_vs_point_equivalence(weibull25, 64, 2.0,
                                        [(0.01, 0.05)], count=5_000, seed=15)


def test_equivalence_bad_interval(weibull25):
    with pytest.raises(DomainError):
        exceedance_vs_point_equivalence(weibull25, 16, 2.0, [(2.0, 1.0)],
                                        count=5_000, seed=16)


# --- sample wrapper ------------------------------------------------------------------------

def test_from_values_ess():
    vals = np.linspace(0.0, 1.0, 2000)
    s1 = ConditionalSample.from_values(vals)
    assert s1.ess == pytest.approx(2000.0)
    w = np.ones(2000)
    w[:1000] = 3.0
    s2 = ConditionalSample.from_values(vals, weights=w)
    assert s2.ess == pytest.approx(w.sum() ** 2 / np.sum(w ** 2), rel=1e-12)
