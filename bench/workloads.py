"""The benchmark's four workloads, run through exdev's public API.

Each workload has a set-up step that builds its densities and a run step
that makes a fixed list of layer-level calls ("ops") and checks every
output with the rule of the acceptance criterion it comes from (the one
allowance is ROUNDING below).  An op fails if it raises or its check
fails.  Calls go through the exdev submodules (`ex.tails.tail_prob_is_oracle`,
not `ex.tail_prob_is_oracle`), which is where a traced pass puts its
wrappers.

The seeds of every Monte Carlo call come from the run's seed; the levels,
grids and sizes are fixed, so a pass does the same work on every seed.
"""

from __future__ import annotations

import math

import numpy as np

from ess import bulk_ess

# point-gibbs: criterion-06 levels at a smaller size (48 chains instead of
# 1000, burn-in 20 n, 20 retained sweeps)
GIBBS_N = (8, 32, 128)
GIBBS_CHAINS = 48
GIBBS_BURN_SWEEPS = 20
GIBBS_KEEP_SWEEPS = 20
# tail-is: criterion 04 with fewer importance samples
IS_SAMPLES = 1_500_000
IS_THREADS = 2
# exceedance: criterion 08 schedule (n = 256 kept, so the ESS collapse
# stays visible) plus criterion 09
DLP_N = (16, 64, 256)
DLP_COUNT = 5_000
# dlp_check forms its estimate as a dot product of normalized weights, which
# can exceed 1 by a few ulp when every row is inside the window.  Criterion
# 08 in the test suite owns that defect; here it is counted (dlp_above_one)
# rather than failed, and anything beyond rounding still fails.
ROUNDING = 1e-12
EQUIV_N = 128
EQUIV_COUNT = 40_000
# tilt-sweep
ABELIAN_TILTS = 25
NEGLECT_TILTS = (1.0e2, 1.0e3, 1.0e4)
RATE_LEVELS = 12
EDGEWORTH_N = (4, 16, 64, 256, 1024)
# criterion 10's levels; one Metropolis run per level, whose adapted step
# size varies with the seed, so the ESS is summed over the three
SQUARE_LEVELS = (5.0, 20.0, 80.0)
LEVELSET_COUNT = 20_000
LEVELSET_CHAINS = 256


class OpLog:
    """Counts ops and records why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, name: str, call, check):
        """Run `call`, then `check(result)`, which returns None or a reason.

        Returns the result, or None when the op failed.
        """
        self.attempted += 1
        try:
            out = call()
            problem = check(out)
        except Exception as exc:  # an op that raises is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if problem:
            self.failures.append(f"{name}: {problem}")
            return None
        return out


def _chain_ess(values: np.ndarray, chains: int) -> float:
    """Bulk ESS of draws stored time-major, `chains` rows per retained time."""
    kept = values.size // chains
    return bulk_ess(values[:kept * chains].reshape(kept, chains).T)


# ---------------------------------------------------------------------------
# point-gibbs

def setup_point_gibbs(ex) -> dict:
    return {"d": ex.densities.weibull(2.5)}


def run_point_gibbs(ex, dens, seeds, log: OpLog, nproc: int) -> dict:
    """Pairwise-Gibbs sampling given S_n = n a_n, a_n = n^0.35, and the TV
    distance of the pooled coordinate marginal to the tilted law.

    Runs at criterion-06 levels only: a pass here says nothing about the
    pair grid's failure at extreme levels, which tier-1 owns.
    """
    cond_mod = ex.conditional
    d = dens["d"]
    ess = 0.0
    for i, n in enumerate(GIBBS_N):
        a = float(n) ** 0.35
        cond = cond_mod.ConditionDescriptor("point", n, a)

        def call():
            sample = cond_mod.sample_point_conditional(
                d, cond, chains=GIBBS_CHAINS, steps=GIBBS_KEEP_SWEEPS * n,
                burn_in=GIBBS_BURN_SWEEPS * n, stride=n, seed=seeds[2 * i],
                pool_all=True)
            tv = cond_mod.marginal_tv(sample, ex.tilting.tilt_to_mean(d, a),
                                      seed=seeds[2 * i + 1])
            return sample, tv

        def check(out):
            sample, tv = out
            if not sample.residual <= 1e-12:
                return f"sum residual {sample.residual:.3e} > 1e-12"
            if not 0.0 <= tv.ci_low <= tv.tv <= tv.ci_high <= 1.0:
                return f"TV interval out of order: {tv}"
            if not tv.tv < 0.1:
                return f"tv {tv.tv:.4f} >= 0.1"
            return None

        out = log.run(f"gibbs n={n}", call, check)
        if out is not None:
            ess += _chain_ess(out[0].coords[:, 0], GIBBS_CHAINS)
    return {"ess": ess}


# ---------------------------------------------------------------------------
# tail-is

def setup_tail_is(ex) -> dict:
    return {"d": ex.densities.weibull(2.0)}


def run_tail_is(ex, dens, seeds, log: OpLog, nproc: int) -> dict:
    """Saddlepoint tail at n=10, a=3 against the threaded IS oracle
    (criterion 04: ratio within max(10%, 3 relative SE))."""
    tails = ex.tails
    d = dens["d"]
    est = log.run("tail_prob", lambda: tails.tail_prob(d, 10, 3.0),
                  lambda e: None if e.lambda_ok and math.isfinite(e.log_prob)
                  else f"lambda_n {e.lambda_n:.3g} < 5")

    def check(oracle):
        if est is None:
            return "no saddlepoint estimate to compare with"
        ratio = math.exp(est.log_prob - oracle.log_prob)
        tol = max(0.10, 3.0 * oracle.rel_se)
        if not abs(ratio - 1.0) <= tol:
            return f"saddle/IS ratio {ratio:.4f} outside 1 +- {tol:.3f}"
        return None

    oracle = log.run(
        "is_oracle",
        lambda: tails.tail_prob_is_oracle(d, 10, 3.0, samples=IS_SAMPLES,
                                          seed=seeds[0],
                                          threads=min(IS_THREADS, nproc)),
        check)
    return {"ess": oracle.ess if oracle is not None else 0.0}


# ---------------------------------------------------------------------------
# exceedance

def setup_exceedance(ex) -> dict:
    return {"d": ex.densities.weibull(2.5)}


def run_exceedance(ex, dens, seeds, log: OpLog, nproc: int) -> dict:
    """Weighted exceedance sampling: the localization probability at
    a_n = n^0.4 (criterion 08's schedule) and the exceedance/point
    equivalence ratio at n=128 (criterion 09: ratio in [0.8, 1.2])."""
    cond_mod = ex.conditional
    d = dens["d"]
    ess = 0.0
    above_one = 0
    for i, n in enumerate(DLP_N):
        a = float(n) ** 0.4
        window = cond_mod.epsilon_schedule(2.5, n, a)
        cond = cond_mod.ConditionDescriptor("exceedance", n, a)
        est = log.run(
            f"dlp n={n}",
            lambda: cond_mod.dlp_check(d, cond, window, count=DLP_COUNT,
                                       seed=seeds[i]),
            lambda e: None if 0.0 <= e.estimate <= 1.0 + ROUNDING
            and math.isfinite(e.se)
            else f"estimate {e.estimate!r} outside [0, 1] or se {e.se!r}")
        if est is not None:
            ess += est.ess
            above_one += est.estimate > 1.0

    a = float(EQUIV_N) ** 0.35

    def equivalence():
        td = ex.tilting.tilt_to_mean(d, a)
        return cond_mod.exceedance_vs_point_equivalence(
            d, EQUIV_N, a, [(a - td.s, a + td.s)], count=EQUIV_COUNT,
            seed=seeds[len(DLP_N)])

    rep = log.run(
        f"equivalence n={EQUIV_N}", equivalence,
        lambda r: None if 0.8 <= r.rows[0].ratio <= 1.2
        else f"ratio {r.rows[0].ratio:.4f} outside [0.8, 1.2]")
    if rep is not None:
        ess += rep.ess
    return {"ess": ess, "dlp_above_one": above_one}


# ---------------------------------------------------------------------------
# tilt-sweep

def setup_tilt_sweep(ex) -> dict:
    return {"weibull2": ex.densities.weibull(2.0),
            "weibull3": ex.densities.weibull(3.0),
            "double_exp": ex.densities.double_exp()}


def _abelian_problem(rep) -> str | None:
    """Criterion 01: deviations shrink along the grid, |skew| decreases to
    below 0.1."""
    if not abs(rep.ratio_m[-1] - 1.0) < abs(rep.ratio_m[0] - 1.0):
        return "m/psi deviation does not shrink"
    if not abs(rep.ratio_s2[-1] - 1.0) < abs(rep.ratio_s2[0] - 1.0):
        return "s2/psi' deviation does not shrink"
    if not (rep.skew_monotone_decreasing and abs(rep.final_skew) < 0.1):
        return f"skew not decreasing to < 0.1 (final {rep.final_skew:.3g})"
    return None


def run_tilt_sweep(ex, dens, seeds, log: OpLog, nproc: int) -> dict:
    """Cold cumulants on tilt grids, the rate function, Edgeworth against
    the FFT oracle, and the level-set Metropolis sampler at criterion 10's
    levels."""
    tilting, tails, edgeworth, levelsets = (ex.tilting, ex.tails,
                                            ex.edgeworth, ex.levelsets)
    grid = np.geomspace(10.0, 1.0e4, ABELIAN_TILTS)
    for key in ("weibull2", "weibull3", "double_exp"):
        log.run(f"abelian {key}",
                lambda: tilting.abelian_check(dens[key], grid),
                _abelian_problem)

    for key in ("weibull2", "double_exp"):
        log.run(f"self_neglect {key}",
                lambda: [tilting.self_neglect_check(dens[key], t)
                         for t in NEGLECT_TILTS],
                lambda sups: None if all(b < a for a, b in zip(sups, sups[1:]))
                else f"sups {sups} not decreasing")

    def rates():
        levels = np.linspace(1.2, 8.0, RATE_LEVELS)
        d = dens["weibull2"]
        ends = [tails.rate_I(d, float(a)) for a in levels]
        mids = [tails.rate_I(d, float(0.5 * (lo + hi)))
                for lo, hi in zip(levels, levels[1:])]
        return ends, mids

    def convex(out):
        ends, mids = out
        for i, mid in enumerate(mids):
            if not mid <= 0.5 * (ends[i] + ends[i + 1]) + 1e-12:
                return f"midpoint convexity fails between levels {i}, {i + 1}"
        return None

    log.run("rate_I", rates, convex)

    td = tilting.tilt_to_mean(dens["weibull3"], 20.0)
    errors = {}
    for n in EDGEWORTH_N:
        def edge():
            oracle = edgeworth.convolve_oracle(td, n)
            ev = edgeworth.edgeworth_density(td, n, oracle.x)
            return float(np.max(np.abs(ev.value - oracle.density)))

        def shrinks(err):
            # criterion 03: the error shrinks >= 1.5x for n = 4 -> 16 -> 64
            if not math.isfinite(err):
                return "non-finite Edgeworth error"
            prev = {16: 4, 64: 16}.get(n)
            if prev is not None and not errors.get(prev, 0.0) / err >= 1.5:
                return f"error shrink {prev}->{n} below 1.5x"
            return None

        err = log.run(f"edgeworth n={n}", edge, shrinks)
        if err is not None:
            errors[n] = err

    # the level-set experiment under the x^2 tilt; criterion 10: the spread
    # of |X| - sqrt(a) decreases along the levels
    ambient = levelsets.product_ambient(
        levelsets.signed_sqrt_marginal(dens["weibull3"]), 1)
    spreads = []
    ess = 0.0
    for i, a in enumerate(SQUARE_LEVELS):
        def concentrates(res):
            if not np.all(np.isfinite(res.points)):
                return "non-finite level-set draws"
            spreads.append(float(np.std(np.abs(res.points[:, 0])
                                        - math.sqrt(a))))
            if not all(y < x for x, y in zip(spreads, spreads[1:])):
                return f"spread of |X| - sqrt(a) {spreads} not decreasing"
            return None

        res = log.run(f"level_set a={a:g}",
                      lambda: levelsets.level_set_sampler(
                          ambient, "sumsq", a, count=LEVELSET_COUNT,
                          seed=seeds[i], chains=LEVELSET_CHAINS),
                      concentrates)
        if res is not None:
            ess += _chain_ess(res.f_values, LEVELSET_CHAINS)
    return {"ess": ess}


WORKLOADS = {
    "point-gibbs": (setup_point_gibbs, run_point_gibbs),
    "tail-is": (setup_tail_is, run_tail_is),
    "exceedance": (setup_exceedance, run_exceedance),
    "tilt-sweep": (setup_tilt_sweep, run_tilt_sweep),
}
