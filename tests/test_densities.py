"""Density model: normalizers against brute-force quadrature, h/psi identities,
the tail index read off the terms."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

import exdev
from exdev import (
    DomainError,
    ExpTerm,
    LogTerm,
    NonMonotone,
    OutOfRange,
    PowerTerm,
    ValidationError,
    density_from_terms,
    psi,
    psi_derivatives,
    weibull,
)
from exdev.densities import PSI_REL_TOL, SERIES_BELOW, SERIES_ORDER
from exdev.tilting import cumulants

from helpers import simpson_integral


# --- normalization oracles -------------------------------------------------

def _mass(d, hi, points=400_001):
    return simpson_integral(lambda x: d.pdf(np.maximum(x, 0.0)), 0.0, hi, points)


@pytest.mark.parametrize("k", [1.5, 2.0, 2.5, 3.0])
def test_weibull_normalizer_closed_form(k):
    # exp(-(x^k - (k-1) log x)) = x^{k-1} e^{-x^k} integrates to 1/k
    d = weibull(k)
    assert d.log_c == pytest.approx(math.log(k), rel=1e-12)


@pytest.mark.parametrize("k,hi", [(2.0, 8.0), (3.0, 4.0)])
def test_weibull_density_integrates_to_one(k, hi):
    d = weibull(k)
    assert _mass(d, hi) == pytest.approx(1.0, abs=1e-9)


def test_double_exp_normalizer_closed_form(dexp):
    # int_0^inf exp(-e^{x-1}) dx = E_1(1/e) by u = e^{x-1}
    assert dexp.log_c == pytest.approx(-math.log(exp1(math.exp(-1.0))), rel=1e-10)
    assert _mass(dexp, 6.0) == pytest.approx(1.0, abs=1e-9)


def test_custom_terms_integrate_to_one():
    terms = (PowerTerm(0.5, 3.0), PowerTerm(1.0, 1.5), LogTerm(-0.5))
    d = density_from_terms(terms)
    # substitute x = u^2 so the fractional power at the origin stays smooth
    mass = simpson_integral(lambda u: 2.0 * u * d.pdf(u ** 2), 0.0, np.sqrt(5.0))
    assert mass == pytest.approx(1.0, abs=1e-9)


# --- h / psi ----------------------------------------------------------------

def test_h_matches_term_derivatives(weibull3):
    x = np.linspace(0.5, 5.0, 41)
    expected = 3.0 * x ** 2 - 2.0 / x
    np.testing.assert_allclose(weibull3.h(x), expected, rtol=1e-12)
    np.testing.assert_allclose(weibull3.h_prime(x), 6.0 * x + 2.0 / x ** 2, rtol=1e-12)


# x = 0 (log term -inf, coef/0 infinite), subnormals, 1 and its neighbours,
# and the overflow points of exp(x) (709.78) and exp(0.5 x) (1419.57)
SCALAR_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, 1.0 - 2 ** -53,
                1.0 + 2 ** -52, 709.78, 710.0, 1419.5, 1420.0, 1e4, 1e300]


def _scalar_points(count=40_000):
    rng = np.random.default_rng(11)
    rest = count - len(SCALAR_EDGES)
    return np.concatenate([
        SCALAR_EDGES,
        1.0 + rng.normal(scale=1e-8, size=rest // 4),
        rng.uniform(0.0, 5.0, rest // 4),
        rng.uniform(0.0, 3000.0, rest // 4),
        np.exp(rng.uniform(-690.0, 690.0, rest - 3 * (rest // 4))),
    ]).tolist()


@pytest.mark.parametrize("make", [
    lambda: weibull(2.0), lambda: weibull(2.5), lambda: weibull(3.0),
    lambda: exdev.double_exp(),
    # the golden run's custom list, power:1:1.5,log:-0.5,exp:0.2:0.5
    lambda: density_from_terms(
        (PowerTerm(1.0, 1.5), LogTerm(-0.5), ExpTerm(0.2, 0.5))),
], ids=["weibull2", "weibull2.5", "weibull3", "double_exp", "cust"])
def test_scalar_path_is_bit_identical(make):
    d = make()
    xs = _scalar_points()
    assert len(xs) == 40_000
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for scalar, array in ((d.g_scalar, d.g), (d.g_prime_scalar, d.g_prime),
                              (lambda x: d.h_pair(x)[1], d.g_second)):
            got = np.array([scalar(x) for x in xs])
            want = np.array([float(array(x)) for x in xs])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _excess_reference(term, x0, delta):
    """g(x0 + delta) - g(x0) - g'(x0) delta of one term in 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        x0, x, c = D(x0), D(x0) + D(delta), D(term.coef)
        if isinstance(term, PowerTerm):
            p = D(term.exponent)
            g = lambda v: c * (p * v.ln()).exp()
            slope = c * p * ((p - 1) * x0.ln()).exp()
        elif isinstance(term, LogTerm):
            g = lambda v: c * v.ln()
            slope = c / x0
        else:
            r = D(term.rate)
            g = lambda v: c * (r * v).exp()
            slope = c * r * (r * x0).exp()
        return float(g(x) - g(x0) - slope * D(delta))


@pytest.mark.parametrize("term", [
    PowerTerm(1.0, 2.5), PowerTerm(0.7, 1.5), PowerTerm(1.0, 4.0),
    LogTerm(-1.5), LogTerm(0.5), ExpTerm(math.exp(-1.0), 1.0),
    ExpTerm(0.2, 0.5)], ids=repr)
def test_excess_against_sixty_digits(term):
    # the series (|u| < 1e-2) and the expm1/log1p form on both sides of the
    # switch, down to u = 1e-9 where forming g(x0 + delta) - g(x0) keeps no
    # digit, and out to u = -0.999 and 30; just past the switch the expm1
    # form keeps about 2 eps / ((p - 1) u), 9e-14 for p = 1.5
    u = np.array([-0.999, -0.5, -0.0100001, -0.0099999, -1e-5, -1e-9, 1e-9,
                  1e-5, 0.0099999, 0.0100001, 0.3, 30.0])
    for x0 in (0.8, 7.0, 2.5e6):
        if isinstance(term, ExpTerm) and x0 > 100.0:
            continue
        delta = u * x0
        got = term.excess(x0, delta)
        want = np.array([_excess_reference(term, x0, float(v))
                         for v in delta])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_excess_sums_the_catalog():
    d = weibull(2.5)
    delta = np.array([-0.5, 1e-6, 2.0])
    want = sum(t.excess(1.3, delta) for t in d.terms)
    np.testing.assert_array_equal(d.excess(1.3, delta), want)
    # a log term meets -inf at x = 0, so the tilted exponent does too
    assert d.excess(1.3, np.array([-1.3]))[0] == math.inf


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _both_branches_excess(term, x0, delta):
    """term.excess as first written: the series and the expm1/log1p form on
    every element, then np.where picks one."""
    def pick(direct, a, coefs):
        near = coefs[-1]
        for c in coefs[-2::-1]:
            near = near * a + c
        return np.where(np.abs(a) < SERIES_BELOW, near * a * a, direct)

    ks = range(2, SERIES_ORDER + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(term, PowerTerm):
            p, u = term.exponent, delta / x0
            coefs, c = [], p
            for k in ks:
                c *= (p - k + 1.0) / k
                coefs.append(c)
            direct = np.expm1(p * np.log1p(u)) - p * u
            return term.coef * x0 ** p * pick(direct, u, coefs)
        if isinstance(term, LogTerm):
            u = delta / x0
            coefs = [(-1.0) ** (k + 1) / k for k in ks]
            return term.coef * pick(np.log1p(u) - u, u, coefs)
        a = term.rate * delta
        coefs = [1.0 / math.factorial(k) for k in ks]
        return (term.coef * math.exp(term.rate * x0)
                * pick(np.expm1(a) - a, a, coefs))


@pytest.mark.parametrize("term", [
    PowerTerm(1.0, 0.5), PowerTerm(0.7, 1.5), PowerTerm(1.0, 2.5),
    PowerTerm(1.0, 4.0), LogTerm(-1.5), LogTerm(0.5),
    ExpTerm(math.exp(-1.0), 1.0), ExpTerm(0.2, 0.5)], ids=repr)
def test_branch_local_excess_equals_both_branches(term):
    # the series runs only where |u| < SERIES_BELOW and expm1/log1p only on
    # the rest; each element gets the same operations as when both ran
    # everywhere.  u = -1 is x = 0, where a log gives -inf
    b = SERIES_BELOW
    mixed = np.array([-1.0, -0.5, -b, -0.9 * b, -1e-9, 0.0, 1e-7, 0.5 * b,
                      b, 1.1 * b, 0.3, 30.0])
    near = np.linspace(-0.99 * b, 0.99 * b, 41)
    far = np.array([-1.0, -0.999, -0.2, -b, b, 2.0, 40.0])
    # x0 (and the exp term's rate) are powers of two, so u is exactly
    # +-SERIES_BELOW where asked; 7.3 gives a grid with no such node
    for x0 in (0.5, 4.0, 7.3):
        scale = 1.0 / term.rate if isinstance(term, ExpTerm) else x0
        for u in (mixed, near, far, np.array([-1.0]), np.empty(0)):
            delta = u * scale
            if x0 != 7.3 and u.size:
                a = (term.rate * delta if isinstance(term, ExpTerm)
                     else delta / x0)
                assert np.array_equal(a, u)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                got = term.excess(x0, delta)
            want = _both_branches_excess(term, x0, delta)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


LOG_PDF_DENSITIES = [
    lambda: weibull(1.5), lambda: weibull(2.5), exdev.double_exp,
    lambda: density_from_terms((PowerTerm(1.0, 2.5), ExpTerm(0.1, 0.5)))]


@pytest.mark.parametrize("make", LOG_PDF_DENSITIES,
                         ids=["weibull1.5", "weibull2.5", "dexp", "power+exp"])
def test_float_log_pdf_equals_the_array_path(make):
    # a float and a 0-d array give the same log density, base and tilted,
    # at x = 0, in the far tail and where an exp term overflows
    d = make()
    peak = cumulants(d, 0.0).m
    xs = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, peak, 30.0, 1e3, 1500.0,
          1e10, 1e300, math.inf, math.nan]
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in xs:
            for model in (d, cumulants(d, 0.0), cumulants(d, 7.0)):
                got = model.log_pdf(x)
                want = model.log_pdf(np.asarray(x))
                assert _bits(got) == _bits(want), (model, x)
                assert model.log_pdf(np.float64(x)) == got or math.isnan(got)
    for x in (-0.5, -5e-324, -math.inf):
        for model in (d, cumulants(d, 7.0)):
            with pytest.raises(DomainError):
                model.log_pdf(x)
            with pytest.raises(DomainError):
                model.log_pdf(np.asarray(x))


ALL_PICKS = "g g_prime g_second g_third log_pdf"


@pytest.mark.parametrize("make, picks", [
    (lambda: weibull(1.5), ALL_PICKS),
    # for 2 < k < 3, g_third(0) is +inf - inf: NaN, and numpy says so
    (lambda: weibull(2.5), "g g_prime g_second log_pdf"),
    (lambda: weibull(3.0), ALL_PICKS),
    (lambda: weibull(4.0), ALL_PICKS),
    # the golden runs' custom lists: cust, and cgtv with no log term
    (lambda: density_from_terms(
        (PowerTerm(1.0, 1.5), LogTerm(-0.5), ExpTerm(0.2, 0.5))), ALL_PICKS),
    (lambda: density_from_terms((PowerTerm(1.0, 2.5), ExpTerm(0.1, 0.5))),
     ALL_PICKS),
], ids=["weibull1.5", "weibull2.5", "weibull3", "weibull4", "cust", "cgtv"])
def test_array_path_is_silent_at_zero(make, picks):
    # log 0, c / 0 and negative powers of 0 are infinities, not warnings
    d = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, np.array([0.0, 1.0])):
            for pick in picks.split():
                getattr(d, pick)(x)


def test_psi_inverts_h(weibull25):
    x = np.linspace(1.0, 40.0, 25)
    u = weibull25.h(x)
    np.testing.assert_allclose(psi(weibull25, u), x, rtol=1e-9)


def test_psi_closed_form_double_exp(dexp):
    # the solved psi against the exact inverse of h = e^(x-1)
    u = np.geomspace(1.0, 1e10, 40)
    np.testing.assert_allclose(psi(dexp, u), 1.0 + np.log(u), rtol=1e-15)


@given(st.floats(min_value=1.05, max_value=60.0))
def test_psi_round_trip_property(x):
    d = weibull(2.0)
    u = float(d.h(x))
    assert psi(d, u) == pytest.approx(x, rel=1e-8)


def test_psi_function_derivatives(weibull2):
    def prime(u):
        return psi_derivatives(weibull2, u)[1]

    u = np.linspace(4.0, 50.0, 12)
    x, p1, p2 = psi_derivatives(weibull2, u)
    np.testing.assert_array_equal(x, psi(weibull2, u))
    # psi' = 1/h'(psi)
    np.testing.assert_allclose(p1, 1.0 / weibull2.h_prime(x), rtol=1e-8)
    du = 1e-4 * u
    fd = (psi(weibull2, u + du) - psi(weibull2, u - du)) / (2.0 * du)
    np.testing.assert_allclose(p1, fd, rtol=1e-6)
    fd2 = (prime(u + du) - prime(u - du)) / (2.0 * du)
    np.testing.assert_allclose(p2, fd2, rtol=1e-5)


def test_psi_below_range_raises(weibull2):
    lo = float(weibull2.h(exdev.densities.X_MIN_REGULAR))
    with pytest.raises(OutOfRange):
        psi(weibull2, lo - 0.5)


def test_exponent_peak_rejects_decreasing_h():
    # the one h(x) = u solver (psi, tilt peaks) refuses an h that falls
    # while its bracket expands, instead of reporting a missed level
    with pytest.raises(NonMonotone):
        exdev.quadrature.exponent_peak(lambda x: (-x, -1.0), 1.0, 1.0)


def test_psi_root_past_2_pow_49():
    # h(x) = 1.5 x^0.5 - 0.5/x meets 3.6e7 near 5.76e14, a root the peak
    # bracket never reached while it stopped doubling at 1e15
    d = weibull(1.5)
    x = float(psi(d, 3.6e7))
    assert x > 2.0 ** 49
    assert abs(d.g_prime_scalar(x) - 3.6e7) <= PSI_REL_TOL * 3.6e7


def test_psi_root_past_the_overflow_of_h():
    # h = e^x doubles its bracket from 512 to 1024, where h overflows to inf
    d = density_from_terms([ExpTerm(1.0, 1.0)])
    with np.errstate(over="ignore"):
        assert psi(d, 1e250) == pytest.approx(250.0 * math.log(10.0),
                                              rel=1e-14)


# --- tail index ---------------------------------------------------------------

@pytest.mark.parametrize("k", [1.5, 2.5, 3.0, 4.0])
def test_weibull_tail_index_is_k(k):
    # class Beta(k - 1): h(x) = x^(k-1) l(x)
    assert weibull(k).tail_index == k


@pytest.mark.parametrize("make", [
    lambda: exdev.double_exp(),
    # the golden runs' custom lists, cust and cgtv
    lambda: density_from_terms(
        (PowerTerm(1.0, 1.5), LogTerm(-0.5), ExpTerm(0.2, 0.5))),
    lambda: density_from_terms((PowerTerm(1.0, 2.5), ExpTerm(0.1, 0.5))),
], ids=["double_exp", "cust", "cgtv"])
def test_exp_term_has_no_tail_index(make):
    # an exp term makes h rapidly varying: class Infinity
    assert make().tail_index is None


def test_tail_index_is_the_largest_power_exponent():
    d = density_from_terms((PowerTerm(1.0, 2.5), PowerTerm(0.5, 3.0),
                            LogTerm(-0.5)))
    assert d.tail_index == 3.0


# --- validation ---------------------------------------------------------------

def test_weibull_requires_k_above_one():
    for k in (1.0, 0.5, -2.0):
        with pytest.raises(ValidationError):
            weibull(k)


def test_log_pdf_rejects_negative_axis(weibull2):
    with pytest.raises(DomainError):
        weibull2.log_pdf(np.array([0.5, -0.1]))


def test_exp_term_requires_positive_rate():
    with pytest.raises(ValidationError):
        ExpTerm(1.0, -0.5)


def test_empty_terms_rejected():
    with pytest.raises(ValidationError):
        density_from_terms(())


def test_version_string():
    assert exdev.__version__ == "0.1.0"
