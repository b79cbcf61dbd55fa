"""Exponential tilting: cumulants against quadrature oracles and closed forms,
mean inversion, asymptotic diagnostics."""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, erf, polygamma

from exdev import (
    DomainError,
    ExpTerm,
    LogTerm,
    NotSolvable,
    OutOfRange,
    PowerTerm,
    abelian_check,
    cumulants,
    density_from_terms,
    growth_report,
    invert_m,
    log_mgf,
    psi,
    psi_derivatives,
    self_neglect_check,
    tilt_to_mean,
    weibull,
)
from exdev import double_exp, quadrature, tilting
from exdev.densities import X_MIN_REGULAR
from exdev.levelsets import _power_law
from exdev.tilting import REL_TOL, T_CAP, density_mean

from helpers import simpson_integral


# --- log mgf -----------------------------------------------------------------

def test_log_mgf_at_zero_is_zero(weibull2, dexp):
    # log_c is minus the moment rule's log mass at t = 0, so phi(0) = 1 exactly
    custom = density_from_terms((PowerTerm(0.5, 3.0), PowerTerm(1.0, 1.5),
                                 LogTerm(-0.5)))
    for d in (weibull2, dexp, custom, _power_law(weibull(3.0), 2.0)):
        assert log_mgf(d, 0.0) == 0.0


def test_log_mgf_weibull2_closed_form(weibull2):
    # phi(t) = 1 + t (sqrt(pi)/2) e^{t^2/4} (1 + erf(t/2)) for p = 2x e^{-x^2}
    for t in (0.5, 1.0, 2.0, 4.0):
        closed = math.log(1.0 + t * (math.sqrt(math.pi) / 2.0)
                          * math.exp(t * t / 4.0) * (1.0 + erf(t / 2.0)))
        assert log_mgf(weibull2, t) == pytest.approx(closed, rel=1e-10)


def test_log_mgf_simpson_oracle(weibull3):
    t = 2.5
    val = simpson_integral(lambda x: np.exp(t * x) * weibull3.pdf(x), 0.0, 6.0,
                           points=400_001)
    assert log_mgf(weibull3, t) == pytest.approx(math.log(val), rel=1e-9)


def test_log_mgf_jensen_bound(weibull2, dexp):
    for d in (weibull2, dexp):
        mean0 = density_mean(d)
        for t in (0.5, 1.0, 3.0):
            assert log_mgf(d, t) >= t * mean0 - 1e-12


# --- cumulants ---------------------------------------------------------------

def test_cumulants_simpson_oracle(weibull2):
    t = 1.0
    z = simpson_integral(lambda x: np.exp(t * x) * weibull2.pdf(x), 0.0, 10.0,
                         points=400_001)
    mom = [simpson_integral(lambda x, r=r: x ** r * np.exp(t * x) * weibull2.pdf(x),
                            0.0, 10.0, points=400_001) / z for r in (1, 2, 3)]
    m_ref = mom[0]
    s2_ref = mom[1] - mom[0] ** 2
    mu3_ref = mom[2] - 3.0 * mom[1] * mom[0] + 2.0 * mom[0] ** 3
    c = cumulants(weibull2, t)
    assert c.m == pytest.approx(m_ref, rel=1e-9)
    assert c.s2 == pytest.approx(s2_ref, rel=1e-8)
    assert c.mu3 == pytest.approx(mu3_ref, rel=1e-6, abs=1e-10)


def test_cumulants_double_exp_polygamma(dexp):
    # tilting by t maps e^{x-1} to a Gamma(t) variable via x = 1 + log y,
    # truncated to y >= 1/e; the truncated mass is ~(1/e)^t/t!, so the
    # polygamma forms become exact only once t is moderately large
    for t in (10.0, 20.0, 50.0):
        c = cumulants(dexp, t)
        assert c.m == pytest.approx(1.0 + digamma(t), rel=1e-8)
        assert c.s2 == pytest.approx(polygamma(1, t), rel=1e-8)
        assert c.mu3 == pytest.approx(polygamma(2, t), rel=1e-6)
    # at t = 2 the truncation is visible, the closed form must NOT match
    assert abs(cumulants(dexp, 2.0).m - (1.0 + digamma(2.0))) > 1e-2


@pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_cumulants_double_exp_polygamma_at_extreme_tilts(dexp, t):
    # the truncation at y >= 1/e is below exp(-t) here; forming t x - g(x)
    # left s2 off by 2.2e-6 and the skew by 1.3e-5 at t = 1e10
    c = cumulants(dexp, t)
    assert abs(c.s2 / polygamma(1, t) - 1.0) < 1e-12
    assert abs(c.mu3 - polygamma(2, t)) / c.s2 ** 1.5 < 1e-12
    assert c.m == pytest.approx(1.0 + digamma(t), rel=1e-14)


@pytest.mark.parametrize("k", [2.5, 4.0])
def test_cumulants_weibull_converge_at_extreme_tilts(k):
    # s2 / psi' -> 1 and the skew -> 0 from below (a 50-digit quadrature
    # of the centered exponent gives skew -1.2e-7 and -2.6e-9 for k = 2.5
    # at t = 1e8 and 1e10); t x - g(x) read +3.1e-4 at t = 1e8 and raised
    # at t = 1e10
    rep = abelian_check(weibull(k), [1e4, 1e6, 1e8, 1e10])
    dev = np.abs(rep.ratio_s2 - 1.0)
    assert np.all(np.diff(dev) < 0.0)
    assert dev[-1] < 1e-12
    assert np.all(rep.skew < 0.0)
    assert np.all(np.diff(np.abs(rep.skew)) < 0.0)
    if k == 2.5:
        assert rep.skew[2] == pytest.approx(-1.19e-7, rel=0.01)
        assert rep.skew[3] == pytest.approx(-2.57e-9, rel=0.01)


def test_log_rule_takes_only_the_windows_that_meet_zero(monkeypatch):
    # the tilt-sweep grid: the x trapezoid takes every tilt except the first
    # one of weibull(2), the first three of weibull(3) and the first two of
    # double_exp, whose integrand is above exp(-40) of its peak near x = 0
    calls = []
    rule = quadrature._log_rule
    # built first: construction runs the rule at t = 0
    densities = (weibull(2.0), weibull(3.0), double_exp())
    monkeypatch.setattr(quadrature, "_log_rule",
                        lambda *args: calls.append(args) or rule(*args))
    grid = np.geomspace(10.0, 1e4, 25)
    tilting._cumulants_cached.cache_clear()
    for d in densities:
        abelian_check(d, grid)
    assert len(calls) == 6


@pytest.mark.parametrize("make", [lambda: weibull(2.0), lambda: weibull(3.0),
                                  double_exp],
                         ids=["weibull2", "weibull3", "double_exp"])
def test_moment_rules_agree_where_the_x_rule_takes_over(make):
    d = make()
    for t in np.geomspace(10.0, 1e4, 25):
        centered = d.centered(float(t))
        x_peak = quadrature.exponent_peak(d.h_pair, t, X_MIN_REGULAR)
        by_x = quadrature._x_rule(centered, x_peak, d.h_pair(x_peak)[1])
        if by_x is not None:
            break
    assert t > 10.0  # the grid's first tilt takes the log-x rule

    def log_hd(x):
        # the (h, h') of L(x) + log x, as quadrature.moments forms it
        h, h1 = d.h_pair(x)
        return h - 1.0 / x, h1 + 1.0 / (x * x)

    x0 = quadrature.exponent_peak(log_hd, t, X_MIN_REGULAR)
    by_log = quadrature._log_rule(centered, x0, d.h_pair(x0)[1])
    s = math.sqrt(by_x.var)
    assert abs(by_x.mean - by_log.mean) / s < 1e-11
    assert abs(by_x.var / by_log.var - 1.0) < 1e-11
    assert abs(by_x.mu3 - by_log.mu3) / s ** 3 < 1e-11
    assert abs(by_x.log_z - by_log.log_z) < 1e-11


def test_cumulants_match_log_mgf_derivatives(weibull25):
    t, dt = 3.0, 1e-4
    c = cumulants(weibull25, t)
    fd_m = (log_mgf(weibull25, t + dt) - log_mgf(weibull25, t - dt)) / (2.0 * dt)
    fd_s2 = (log_mgf(weibull25, t + dt) - 2.0 * log_mgf(weibull25, t)
             + log_mgf(weibull25, t - dt)) / dt ** 2
    assert c.m == pytest.approx(fd_m, rel=1e-7)
    assert c.s2 == pytest.approx(fd_s2, rel=1e-5)


def test_cumulants_at_zero_recover_base_mean(weibull2):
    c = cumulants(weibull2, 0.0)
    assert c.m == pytest.approx(density_mean(weibull2), rel=1e-10)
    assert c.s2 > 0.0


# --- tilted density ----------------------------------------------------------

def test_tilted_density_normalized_with_stated_mean(weibull3):
    td = cumulants(weibull3, 4.0)
    mass = simpson_integral(lambda x: td.pdf(x), 0.0, 8.0, points=400_001)
    mean = simpson_integral(lambda x: x * td.pdf(x), 0.0, 8.0, points=400_001)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(td.m, rel=1e-9)


@pytest.mark.parametrize("a", [1e4, 1e8, 1e10, 1e12])
def test_tilted_density_normalized_at_high_levels(a):
    # the centered log-density keeps its digits where t x is huge; the
    # uncentered one integrated to 1.06 at a = 1e10 and to 2e59 at 1e12
    td = tilt_to_mean(weibull(1.5), a)
    mass = simpson_integral(td.pdf, td.m - 40.0 * td.s, td.m + 40.0 * td.s)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_tilt_mean_monotone_in_t(weibull2):
    # negative tilts are admissible and push the mean below the base mean
    ms = [cumulants(weibull2, t).m for t in (-0.5, 0.0, 0.5)]
    assert ms[0] < ms[1] < ms[2]
    assert ms[1] == pytest.approx(density_mean(weibull2), rel=1e-9)


# --- mean inversion ----------------------------------------------------------

def test_invert_m_hits_target(weibull2, weibull3, dexp):
    for d, targets in ((weibull2, (1.5, 4.0, 20.0)),
                       (weibull3, (1.2, 3.0, 10.0)),
                       (dexp, (2.0, 5.0, 9.0))):
        for a in targets:
            c = invert_m(d, a)
            assert abs(c.m - a) <= 1e-9 * max(1.0, a)
            assert c.t > 0.0


def test_invert_m_approaches_h_at_extreme_levels(weibull3):
    # t = m^{-1}(a) ~ h(a) in the extreme regime
    for a in (20.0, 60.0):
        c = invert_m(weibull3, a)
        assert c.t == pytest.approx(float(weibull3.h(a)), rel=0.05)


def test_invert_m_rejects_subcritical_target(weibull2):
    with pytest.raises(NotSolvable):
        invert_m(weibull2, 0.5 * density_mean(weibull2))


def test_invert_m_names_largest_reachable_level(dexp):
    top = cumulants(dexp, 1e10).m
    assert invert_m(dexp, 0.5 * top).m == pytest.approx(0.5 * top, rel=1e-9)
    with pytest.raises(OutOfRange, match=repr(top)):
        invert_m(dexp, top + 1.0)


@pytest.mark.parametrize("n,cold", [(8, 5), (32, 4), (128, 4)])
def test_invert_m_cold_cumulants(n, cold):
    # the base law, the guess h(a) and the Newton steps, which stay inside
    # (t0, 2 t0) and so never need m(2 t0)
    d = weibull(2.5)
    tilting._cumulants_cached.cache_clear()
    invert_m(d, n ** 0.35)
    assert tilting._cumulants_cached.cache_info().misses == cold


def test_solve_mean_grows_the_bracket_only_when_a_step_leaves_it():
    seen = []

    def m_s2(t):
        seen.append(t)
        return t, 1.0

    # Newton's first step from t0 = 1 lands on 10, outside (1, 2): the top
    # doubles to 16, and the step, now inside (8, 16), is kept
    assert quadrature.solve_increasing(m_s2, 10.0, 1.0, lo=0.0,
                                       at_lo=(0.0, 1.0), x_max=T_CAP,
                                       rtol=REL_TOL) == 10.0
    assert seen == [1.0, 2.0, 4.0, 8.0, 16.0, 10.0]


# the property tests' densities: Beta classes from light to steep, the
# Infinity class, and the golden run's custom term list
SOLVER_DENSITIES = {
    "weibull1.5": lambda: weibull(1.5), "weibull2.5": lambda: weibull(2.5),
    "weibull4": lambda: weibull(4.0), "double_exp": double_exp,
    "cust": lambda: density_from_terms(
        (PowerTerm(1.0, 1.5), LogTerm(-0.5), ExpTerm(0.2, 0.5))),
}


@functools.cache
def _solver_density(name):
    return SOLVER_DENSITIES[name]()


def _log_uniform(lo, hi, u):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


@settings(derandomize=True, max_examples=60)
@given(st.sampled_from(sorted(SOLVER_DENSITIES)), st.floats(0.0, 1.0))
def test_exponent_peak_is_the_root_to_8_ulps(name, u):
    # the one solver's peak x brackets h(x) = t within 8 eps of x, from
    # h(1) up to the largest tilt T_CAP
    d = _solver_density(name)
    h = d.g_prime_scalar
    t = _log_uniform(h(1.0), T_CAP, u)
    x = quadrature.exponent_peak(d.h_pair, t, X_MIN_REGULAR)
    eps = sys.float_info.epsilon
    assert h(x * (1.0 - 8.0 * eps)) < t <= h(x * (1.0 + 8.0 * eps))


@settings(derandomize=True)
@given(st.floats(0.0, 1.0))
def test_invert_m_round_trip_up_to_the_tilt_cap(u):
    # Weibull 1.5 puts the peak past 2^49 from t = 3.6e7 on
    d = _solver_density("weibull1.5")
    t = _log_uniform(1.0, T_CAP, u)
    assert invert_m(d, cumulants(d, t).m).t == pytest.approx(t, rel=1e-7)


@given(st.floats(min_value=0.2, max_value=50.0))
def test_invert_m_round_trip(t):
    d = weibull(2.0)
    a = cumulants(d, t).m
    assert invert_m(d, a).t == pytest.approx(t, rel=1e-7)


def test_tilt_to_mean_consistency(weibull25):
    td = tilt_to_mean(weibull25, 6.0)
    assert td.m == pytest.approx(6.0, rel=1e-9)
    assert cumulants(weibull25, td.t).s2 == pytest.approx(td.s2, rel=1e-12)


# --- asymptotic diagnostics --------------------------------------------------

def test_abelian_report_tracks_psi(weibull3):
    rep = abelian_check(weibull3, np.geomspace(10.0, 1e3, 7))
    rows = rep.rows()
    assert rows[0]["t"] == pytest.approx(10.0)
    # m(t)/psi(t) and s2(t)/psi'(t) approach 1 monotonically from the start
    dev_m = [abs(r["ratio_m"] - 1.0) for r in rows]
    dev_s2 = [abs(r["ratio_s2"] - 1.0) for r in rows]
    assert dev_m[-1] < dev_m[0]
    assert dev_s2[-1] < dev_s2[0]
    assert dev_m[-1] < 1e-4
    # direct sanity on the last row against psi
    last = rows[-1]
    assert last["psi"] == pytest.approx(float(psi(weibull3, last["t"])), rel=1e-10)


def test_abelian_check_solves_psi_once_per_tilt(weibull3, monkeypatch):
    # psi, psi' and psi'' all come from one solve of h(x) = t
    from exdev import densities
    grid = np.geomspace(10.0, 1e3, 25)
    calls = []
    solve = densities._psi_scalar

    def counted(d, u):
        calls.append(u)
        return solve(d, u)

    monkeypatch.setattr(densities, "_psi_scalar", counted)
    rep = abelian_check(weibull3, grid)
    assert calls == list(grid)
    ps, p1, _ = psi_derivatives(weibull3, grid)
    np.testing.assert_array_equal(rep.psi, ps)
    np.testing.assert_array_equal(rep.psi_prime, p1)


@pytest.mark.parametrize("k", [2.0, 2.5, 3.0])
def test_abelian_check_depends_on_the_terms_alone(k):
    # psi carries no per-density solver state: the same terms give the same
    # table bit for bit
    grid = np.geomspace(10.0, 1e4, 25)
    named = abelian_check(weibull(k), grid)
    bare = abelian_check(density_from_terms(weibull(k).terms), grid)
    for col, values in named.__dict__.items():
        np.testing.assert_array_equal(getattr(bare, col), values, err_msg=col)


@pytest.mark.parametrize("make", [lambda: weibull(2.0), lambda: weibull(3.0),
                                  double_exp], ids=["weibull2", "weibull3",
                                                    "double_exp"])
def test_psi_is_the_tilt_peak(make):
    # psi(t) is the peak the cumulants at t integrate around
    d = make()
    for t in np.geomspace(10.0, 1e4, 25):
        assert psi(d, t) == quadrature.exponent_peak(d.h_pair, t,
                                                     X_MIN_REGULAR)


def test_self_neglect_shrinks_with_t(weibull2):
    sups = [self_neglect_check(weibull2, t) for t in (1e2, 1e3)]
    assert sups[1] < sups[0]
    assert sups[1] < 0.05


def test_self_neglect_rejects_small_t(weibull3):
    with pytest.raises(DomainError):
        self_neglect_check(weibull3, 1.0)


def test_growth_report_forms(weibull3):
    rep = growth_report(weibull3, 100, 5.0)
    ps, p1, _ = psi_derivatives(weibull3, rep.t)
    assert rep.lemma_form == pytest.approx(ps ** 2 / (10.0 * p1), rel=1e-12)
    assert rep.printed_form == pytest.approx(ps ** 2 / math.sqrt(100.0 * p1), rel=1e-12)
    # the two forms differ unless psi' = 1
    assert rep.lemma_form != pytest.approx(rep.printed_form, rel=1e-3)


def test_growth_schedule_threshold(weibull3):
    # lemma form ~ k(k-1) a^k / sqrt(n); a_n = n^alpha shrinks it iff alpha < 1/(2k)
    shrink = [growth_report(weibull3, n, n ** 0.10).lemma_form
              for n in (10**2, 10**4, 10**6)]
    grow = [growth_report(weibull3, n, n ** 0.25).lemma_form
            for n in (10**2, 10**4, 10**6)]
    assert shrink[2] < shrink[1] < shrink[0]
    assert grow[2] > grow[1] > grow[0]
