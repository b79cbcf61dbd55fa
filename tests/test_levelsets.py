"""Level-set tilting over product ambients: pushforward reductions against
change-of-variable identities, exact-sampler moments and support, the MH
cross-check, concentration geometry."""

import math

import numpy as np
import pytest

from scipy.stats import ks_2samp

from exdev import (
    DomainError,
    PushforwardUnsolvable,
    f_catalog,
    f_tilted_density,
    invert_m,
    level_set_sampler,
    mh_sample,
    positive_marginal,
    product_ambient,
    signed_sqrt_marginal,
    square_concentration_check,
    weibull,
)
from exdev.levelsets import (AmbientLaw, _exact_sample, _power_law,
                             pushforward_model)


# --- change-of-variable laws ------------------------------------------------------

def test_square_law_change_of_variable(weibull3):
    # Z = Y^2: p_Z(z) = p_Y(sqrt(z)) / (2 sqrt(z)), including the normalizer
    sq = _power_law(weibull3, 2.0)
    z = np.linspace(0.3, 6.0, 40)
    expected = weibull3.log_pdf(np.sqrt(z)) - math.log(2.0) - 0.5 * np.log(z)
    np.testing.assert_allclose(sq.log_pdf(z), expected, atol=1e-9)


def test_sqrt_law_change_of_variable(weibull3):
    # W = sqrt(Y): p_W(w) = 2 w p_Y(w^2)
    sr = _power_law(weibull3, 0.5)
    w = np.linspace(0.4, 1.8, 40)
    expected = weibull3.log_pdf(w ** 2) + math.log(2.0) + np.log(w)
    np.testing.assert_allclose(sr.log_pdf(w), expected, atol=1e-9)


def test_square_law_rejects_heavy_result(weibull2):
    # squaring the k=2 law gives a plain exponential tail: not light
    with pytest.raises(PushforwardUnsolvable):
        _power_law(weibull2, 2.0)


def test_sqrt_law_rejects_exponential_terms(dexp):
    with pytest.raises(PushforwardUnsolvable):
        _power_law(dexp, 0.5)


@pytest.mark.parametrize("r, k", [(2.0, 1.5), (0.5, 6.0)])
def test_power_law_tail_index(weibull3, r, k):
    # the leading exponent 3 of g becomes 3 / r
    assert _power_law(weibull3, r).tail_index == k


def test_power_law_round_trip(weibull3):
    # (Y^2)^(1/2) = Y: the terms come back exactly, so the law does too
    back = _power_law(_power_law(weibull3, 2.0), 0.5)
    assert back.terms == weibull3.terms
    x = np.linspace(0.05, 3.0, 60)
    np.testing.assert_array_equal(back.log_pdf(x), weibull3.log_pdf(x))


# --- pushforward reductions --------------------------------------------------------

def test_identity_reduces_to_scalar_tilt(weibull2):
    law = f_tilted_density(weibull2, "identity", 3.0)
    assert law.t == pytest.approx(invert_m(weibull2, 3.0).t, rel=1e-9)
    np.testing.assert_array_equal(law.model.coefs, np.ones(1))


def test_sumsq_signed_sqrt_is_iid_sum(weibull25):
    amb = product_ambient(signed_sqrt_marginal(weibull25), 4)
    law = f_tilted_density(amb, "sumsq", 8.0)
    # f(X) = sum X_j^2 with X_j^2 ~ base, so m_f(t) = 4 m(t)
    np.testing.assert_array_equal(law.model.coefs, np.ones(4))
    assert law.t == pytest.approx(invert_m(weibull25, 2.0).t, rel=1e-9)
    assert law.model.m(law.t) == pytest.approx(8.0, rel=1e-9)


def test_norm2_on_positive_coordinate_is_base(weibull2):
    amb = product_ambient(positive_marginal(weibull2), 1)
    law = f_tilted_density(amb, "norm2", 2.5)
    assert law.t == pytest.approx(invert_m(weibull2, 2.5).t, rel=1e-9)


def test_linear_combination_solve(weibull2):
    amb = product_ambient(positive_marginal(weibull2), 3)
    f = f_catalog("linear", 3, coefs=(1.0, 2.0, 0.5))
    law = f_tilted_density(amb, f, 6.0)
    assert law.model.m(law.t) == pytest.approx(6.0, rel=1e-9)
    assert law.model.s2(law.t) > 0.0


def test_unsolvable_pairings(weibull2, weibull25, dexp):
    amb_pos2 = product_ambient(positive_marginal(weibull2), 2)
    with pytest.raises(PushforwardUnsolvable):
        f_tilted_density(amb_pos2, "sumsq", 5.0)  # squared k=2 law is heavy
    with pytest.raises(PushforwardUnsolvable):
        f_tilted_density(product_ambient(positive_marginal(weibull25), 2),
                         "norm2", 3.0)  # norm2 only reduces in one dimension
    with pytest.raises(PushforwardUnsolvable):
        f_tilted_density(product_ambient(positive_marginal(dexp), 2),
                         "sumsq", 5.0)  # exponential term blocks term surgery
    mixed = AmbientLaw(marginals=(positive_marginal(weibull2),
                                  positive_marginal(weibull25)))
    with pytest.raises(PushforwardUnsolvable):
        f_tilted_density(mixed, "linear", 4.0)


def test_catalog_validation():
    with pytest.raises(DomainError):
        f_catalog("cube", 2)
    with pytest.raises(DomainError):
        f_catalog("identity", 3)
    with pytest.raises(DomainError):
        f_catalog("linear", 2, coefs=(1.0, -1.0))


# --- exact sampler -------------------------------------------------------------------

# every catalog pairing: (id, base fixture, marginal kind, dim, f, coefs, a)
PAIRINGS = [
    ("identity", "weibull3", "positive", 1, "identity", None, 3.0),
    ("sumsq-positive", "weibull3", "positive", 2, "sumsq", None, 5.0),
    ("sumsq-signed", "weibull25", "signed_sqrt", 3, "sumsq", None, 8.0),
    ("norm2-positive", "weibull2", "positive", 1, "norm2", None, 2.5),
    ("norm2-signed", "weibull3", "signed_sqrt", 1, "norm2", None, 3.0),
    ("linear-unequal", "weibull2", "positive", 3, "linear", (1.0, 2.0, 0.5),
     6.0),
]
EXACT_COUNT = 20_000


def _pairing_law(request, base, kind, dim, fname, coefs, a):
    d = request.getfixturevalue(base)
    marg = positive_marginal(d) if kind == "positive" \
        else signed_sqrt_marginal(d)
    return f_tilted_density(product_ambient(marg, dim),
                            f_catalog(fname, dim, coefs=coefs), a)


@pytest.mark.parametrize("pairing", PAIRINGS, ids=[p[0] for p in PAIRINGS])
def test_exact_sample_moments_and_support(request, pairing):
    _, base, kind, dim, fname, coefs, a = pairing
    law = _pairing_law(request, base, kind, dim, fname, coefs, a)
    pts, fv = _exact_sample(law, EXACT_COUNT, np.random.default_rng(31))
    assert pts.shape == (EXACT_COUNT, dim)
    assert fv.shape == (EXACT_COUNT,)
    np.testing.assert_array_equal(fv, law.f.fn(pts))
    s_f = math.sqrt(law.s2_f)
    # iid rows: the plain standard error applies
    assert abs(float(fv.mean()) - a) < 4.0 * s_f / math.sqrt(EXACT_COUNT)
    assert float(fv.std()) == pytest.approx(s_f, rel=0.02)
    if kind == "positive":
        assert np.all(pts >= 0.0)
    else:
        assert abs(float(np.mean(pts > 0.0)) - 0.5) < 0.02


@pytest.mark.parametrize("pairing", PAIRINGS, ids=[p[0] for p in PAIRINGS])
def test_exact_sample_reruns_bit_identical(request, pairing):
    _, base, kind, dim, fname, coefs, a = pairing
    law = _pairing_law(request, base, kind, dim, fname, coefs, a)
    r1 = level_set_sampler(law.ambient, law.f, a, 3000, seed=5)
    r2 = level_set_sampler(law.ambient, law.f, a, 3000, seed=5)
    np.testing.assert_array_equal(r1.points, r2.points)
    np.testing.assert_array_equal(r1.f_values, r2.f_values)
    assert r1.acceptance == 1.0


@pytest.mark.parametrize("a", [5.0, 20.0])
def test_exact_sample_matches_metropolis(weibull3, a):
    # one retained state per chain after burn-in: the Metropolis draws are
    # independent too, so the plain two-sample KS band holds
    law = f_tilted_density(product_ambient(signed_sqrt_marginal(weibull3), 1),
                           "sumsq", a)
    _, fv = _exact_sample(law, EXACT_COUNT, np.random.default_rng(37))
    _, fv_mh, _ = mh_sample(law, 4000, seed=38, chains=4000, burn=1000)
    assert ks_2samp(fv, fv_mh).pvalue > 0.01


# --- MH sampler -----------------------------------------------------------------------

def test_mh_sample_hits_target_mean(weibull25):
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    law = f_tilted_density(amb, "sumsq", 6.0)
    pts, fv, rate = mh_sample(law, 20_000, seed=19, chains=128)
    assert pts.shape == (20_000, 2)
    s_f = math.sqrt(law.s2_f)
    # thinned correlated draws: allow a generous multiple of the iid SE
    assert float(np.mean(fv)) == pytest.approx(6.0, abs=8.0 * s_f / math.sqrt(2000.0))
    assert 0.05 < rate < 0.6


def test_mh_sign_flips_balance_modes(weibull25):
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    law = f_tilted_density(amb, "sumsq", 6.0)
    pts, _, _ = mh_sample(law, 20_000, seed=20, chains=128)
    frac_pos = float(np.mean(pts[:, 0] > 0.0))
    assert 0.44 < frac_pos < 0.56


def test_mh_adapts_on_random_walk_moves_only(weibull25):
    # sign flips are always accepted on an even marginal; counting them would
    # push the random-walk acceptance far below target and its steps would
    # shrink until successive retained states were strongly correlated
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    law = f_tilted_density(amb, "sumsq", 6.0)
    _, fv, rate = mh_sample(law, 19_968, seed=21, chains=128)
    assert 0.18 < rate < 0.3
    x = fv.reshape(-1, 128)
    x = x - x.mean(axis=0)
    lag1 = float((x[1:] * x[:-1]).sum() / (x * x).sum())
    assert lag1 < 0.55


def test_mh_deterministic(weibull25):
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    law = f_tilted_density(amb, "sumsq", 6.0)
    p1, f1, r1 = mh_sample(law, 2_000, seed=4, chains=32, burn=500)
    p2, f2, r2 = mh_sample(law, 2_000, seed=4, chains=32, burn=500)
    np.testing.assert_array_equal(p1, p2)
    assert r1 == r2


# --- level-set sampler ------------------------------------------------------------------

def test_level_set_wide_window_hits_everything(weibull25):
    from exdev import epsilon_schedule
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    win = epsilon_schedule(2.5, 2, 20.0)
    wide = type(win)(epsilon_n=60.0, window=(-40.0, 80.0),
                     criterion_value=win.criterion_value, k=win.k, n=win.n,
                     a_n=win.a_n, feasible=True)
    res = level_set_sampler(amb, "sumsq", 20.0, 10_000, seed=21, window=wide,
                            chains=64)
    assert res.hit_fraction == pytest.approx(1.0)
    assert res.points.shape[0] == 10_000
    assert res.t > 0.0


def test_positive_marginal_rejects_negative_proposals(weibull3):
    # the exact draws map tilted-table values in [0, inf) through the
    # identity, so none can fall outside the support
    res = level_set_sampler(product_ambient(positive_marginal(weibull3), 1),
                            "identity", 3.0, 4000, seed=2)
    assert res.points.shape == (4000, 1)
    assert np.all(np.isfinite(res.points))
    assert np.all(res.points >= 0.0)


def test_level_set_default_window(weibull25):
    amb = product_ambient(signed_sqrt_marginal(weibull25), 2)
    res = level_set_sampler(amb, "sumsq", 20.0, 10_000, seed=22, chains=64)
    assert res.window is not None
    assert 0.0 <= res.hit_fraction <= 1.0


# --- concentration geometry ----------------------------------------------------------------

def test_square_concentration_shrinks(weibull25):
    rep = square_concentration_check(weibull25, (5.0, 20.0), count=20_000,
                                     seed=23)
    assert rep.spread_decreasing
    np.testing.assert_allclose(rep.spread, rep.predicted, rtol=0.2)
    assert np.all(np.abs(rep.sign_balance - 0.5) < 0.08)
    assert np.all(np.diff(rep.t) > 0.0)
