"""Extreme-range Edgeworth expansion against the characteristic-function
oracle for the standardized sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from exdev import (
    DomainError,
    GridSpec,
    MassLeak,
    convolve_oracle,
    cumulants,
    double_exp,
    edgeworth_density,
    tilt_to_mean,
    weibull,
    z1_centered,
    z1_raw,
)
from exdev import quadrature, tilting
from exdev.tilting import T_CAP

from helpers import simpson_integral


@pytest.fixture(scope="module")
def td20(weibull3):
    return tilt_to_mean(weibull3, 20.0)


@pytest.fixture(scope="module")
def ntd20(td20):
    """The standardized tilted density x -> s pi_t(s x + m), 0 below the
    support."""
    def pdf(x):
        y = td20.s * np.asarray(x, dtype=float) + td20.m
        return np.where(y >= 0.0, td20.s * td20.pdf(np.maximum(y, 0.0)), 0.0)
    return pdf


# --- standardized single-step density ----------------------------------------

def test_normalized_density_mean_zero_var_one(td20, ntd20):
    lo = -td20.m / td20.s  # left edge of the support after standardizing
    mass = simpson_integral(ntd20, lo, 12.0, points=400_001)
    mean = simpson_integral(lambda y: y * ntd20(y), lo, 12.0, points=400_001)
    var = simpson_integral(lambda y: y * y * ntd20(y), lo, 12.0, points=400_001)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(1.0, abs=1e-8)


def test_normalized_density_vanishes_below_support(td20, ntd20):
    y = np.array([-td20.m / td20.s - 1.0, -50.0])
    np.testing.assert_array_equal(ntd20(y), 0.0)
    np.testing.assert_array_equal(convolve_oracle(td20, 1)(y), 0.0)


# --- convolution oracle --------------------------------------------------------

def test_oracle_n1_reproduces_density(td20, ntd20):
    table = convolve_oracle(td20, 1)
    sel = np.abs(table.x) <= 4.0  # compare at the nodes; interp adds O(dx^2)
    np.testing.assert_allclose(table.density[sel], ntd20(table.x[sel]),
                               rtol=0, atol=1e-10)
    x = np.linspace(-4.0, 4.0, 81)
    np.testing.assert_allclose(table(x), ntd20(x), rtol=0, atol=1e-5)


def test_oracle_preserves_moments(td20):
    table = convolve_oracle(td20, 8)
    x, f = table.x, table.density
    mass = np.trapezoid(f, x)
    mean = np.trapezoid(x * f, x)
    var = np.trapezoid(x * x * f, x)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(1.0, abs=1e-7)


def test_oracle_approaches_gaussian(td20):
    x = np.linspace(-4.0, 4.0, 161)
    sup = []
    for n in (4, 16, 64):
        table = convolve_oracle(td20, n)
        sup.append(np.max(np.abs(table(x) - norm.pdf(x))))
    assert sup[2] < sup[1] < sup[0]


def test_oracle_narrow_grid_raises_mass_leak(td20):
    with pytest.raises(MassLeak):
        convolve_oracle(td20, 4, GridSpec(half_width=1.0, points=256))


def test_oracle_rejects_bad_n(td20):
    for n in (0, -3):
        with pytest.raises(DomainError):
            convolve_oracle(td20, n)
    # no cap on n: the spectrum's frequency count does not grow with it
    assert convolve_oracle(td20, 2000).n == 2000


@pytest.mark.parametrize("make, a", [
    (double_exp, 1.0), (double_exp, 1.5), (lambda: weibull(1.5), 1.0),
    (lambda: weibull(1.5), 1.5), (double_exp, 20.0)],
    ids=["dexp-1", "dexp-1.5", "weibull1.5-1", "weibull1.5-1.5", "dexp-20"])
def test_oracle_matches_a_finer_rule(make, a, monkeypatch):
    # pi_t jumps (double-exp) or kinks (Weibull 1.5) at 0 at the first four
    # levels, where a table sampled on a widened grid raised MassLeak; at
    # a = 20 nodes formed as x0 + delta - m instead of delta - offset lose
    # phi to rounding and cut it with |phi|^n still near 1
    td = tilt_to_mean(make(), a)
    cached = tilting._cumulants_cached.cache_info().currsize
    for n in (8, 16, 127, 1024, 10 ** 4, 10 ** 6):
        table = convolve_oracle(td, n)
        x, f = table.x, table.density
        if n <= 10 ** 4:
            assert abs(np.trapezoid(f, x) - 1.0) < 1e-9
            assert abs(np.trapezoid(x * f, x)) < 1e-9
            assert abs(np.trapezoid(x * x * f, x) - 1.0) < 1e-9
            with monkeypatch.context() as m:
                # the oracle reruns td's rule, at a 4x finer step here
                m.setattr(quadrature, "H", quadrature.H / 4.0)
                fine = convolve_oracle(td, n).density
            assert np.max(np.abs(fine - f)) < 1e-10 * f.max(), n
    # no cumulant of the finer rule entered the cache
    assert tilting._cumulants_cached.cache_info().currsize == cached


@settings(derandomize=True, max_examples=40)
@given(st.one_of(st.none(), st.floats(1.2, 6.0)), st.floats(0.0, 1.0),
       st.integers(2, 10 ** 4))
def test_oracle_contract_over_the_admitted_domain(k, u, n):
    # a from just above the mean (log-uniform) to the reachable level m(T_CAP):
    # from n = 16 on a table with the moments of the standardized sum; below,
    # a jump or kink of pi_t at 0 may leave more spectrum than the rule holds
    d = double_exp() if k is None else weibull(k)
    lo, hi = 1.001 * cumulants(d, 0.0).m, cumulants(d, T_CAP).m
    td = tilt_to_mean(d, math.exp(math.log(lo) + u * math.log(hi / lo)))
    try:
        table = convolve_oracle(td, n)
    except MassLeak:
        assert n < 16
        return
    x, f = table.x, table.density
    assert abs(np.trapezoid(f, x) - 1.0) < 1e-9
    assert abs(np.trapezoid(x * f, x)) < 1e-9
    assert abs(np.trapezoid(x * x * f, x) - 1.0) < 1e-9


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(points=255)
    with pytest.raises(DomainError):
        GridSpec(points=128)
    with pytest.raises(DomainError):
        GridSpec(half_width=-1.0)


# --- skew-corrected expansion ---------------------------------------------------

def test_edgeworth_formula_decomposition(td20):
    x = np.linspace(-3.0, 3.0, 25)
    ev = edgeworth_density(td20, 16, x)
    gauss = norm.pdf(x)
    herm3 = x ** 3 - 3.0 * x
    expected = gauss * (1.0 + ev.skew_coeff * herm3)
    np.testing.assert_allclose(ev.value, expected, rtol=1e-12)
    np.testing.assert_allclose(ev.gaussian, gauss, rtol=1e-12)
    # skew_coeff folds in the 1/sqrt(n) factor
    assert ev.skew_coeff == pytest.approx(
        td20.mu3 / (6.0 * np.sqrt(16.0) * td20.s ** 3), rel=1e-12)


@pytest.mark.parametrize("half_width", [12.0, 18.0])
def test_edgeworth_cubes_are_exact_on_oracle_grids(weibull2, weibull3,
                                                   half_width):
    # x * x * x equals x ** 3 wherever the cube is exact, as on the oracle's
    # grids here, at criterion 03's tilts and sizes: its verdict and the
    # edgeworth golden cannot move
    cases = [(tilt_to_mean(weibull3, 20.0), n) for n in (4, 16, 64)]
    cases.append((tilt_to_mean(weibull2, 2.0), 4))
    for td, n in cases:
        x = convolve_oracle(td, n, GridSpec(half_width=half_width)).x
        ev = edgeworth_density(td, n, x)
        coeff = td.mu3 / (6.0 * np.sqrt(n) * td.s ** 3)
        gauss = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        corr = gauss * coeff * (x ** 3 - 3.0 * x)
        np.testing.assert_array_equal(ev.correction.view(np.int64),
                                      corr.view(np.int64))
        np.testing.assert_array_equal(ev.value.view(np.int64),
                                      (gauss + corr).view(np.int64))


def test_edgeworth_beats_gaussian_at_moderate_skew(weibull2):
    # lower tilt keeps the single-step skew visible
    td = tilt_to_mean(weibull2, 2.0)
    x = np.linspace(-3.0, 3.0, 121)
    for n in (4, 16):
        table = convolve_oracle(td, n)
        ref = table(x)
        ev = edgeworth_density(td, n, x)
        err_edge = np.max(np.abs(ev.value - ref))
        err_gauss = np.max(np.abs(ev.gaussian - ref))
        assert err_edge < err_gauss


def test_edgeworth_error_shrinks_with_n(td20):
    # compare at table nodes so linear-interp error cannot floor the decay;
    # the residual is the n^{-1} kurtosis term, so each 4x in n gains ~4x
    errs = []
    for n in (4, 16, 64):
        table = convolve_oracle(td20, n)
        sel = np.abs(table.x) <= 3.0
        ev = edgeworth_density(td20, n, table.x[sel])
        errs.append(np.max(np.abs(ev.value - table.density[sel])))
    assert errs[1] < errs[0] / 1.5
    assert errs[2] < errs[1] / 1.5


# --- first-coordinate standardization helpers -----------------------------------

def test_z1_identities(td20):
    n, y1, a, s = 16, 22.0, td20.m, td20.s
    raw = z1_raw(n, a, y1, s)
    cent = z1_centered(n, a, y1, s)
    denom = s * np.sqrt(n - 1.0)
    assert raw == pytest.approx((n * a - y1) / denom, rel=1e-12)
    assert cent == pytest.approx((a - y1) / denom, rel=1e-12)
    # the two scores differ by the deterministic shift (n-1) a / (s sqrt(n-1))
    assert raw - cent == pytest.approx(np.sqrt(n - 1.0) * a / s, rel=1e-12)


def test_z1_rejects_small_n(td20):
    with pytest.raises(DomainError):
        z1_raw(1, td20.m, 5.0, td20.s)
    with pytest.raises(DomainError):
        z1_centered(1, td20.m, 5.0, td20.s)
