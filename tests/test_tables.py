"""Guide-table inverse of the CDF table: its coefficients are scipy's PCHIP
coefficients and its draws the PCHIP interpolant's, bit for bit, at the
knots, in the wide tail buckets and at the ends of [0, 1], for every block
size; its window is cut where the density has fallen by exp(-TAIL_DROP),
at 0 where that lies within STEP_TOL of the origin; its gather indices stay
in range at any level; rows streamed in blocks, on any number of threads,
are the rows of one long draw, and leave the generator where that draw
would."""

import itertools
import sys

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import exdev
from exdev import sampler_tilted, tilt_to_mean
from exdev import tables
from exdev.quadrature import STEP_TOL
from exdev.tables import BLOCK, GUIDE_BUCKETS

TABLES = [("weibull", 2.0, 3.0), ("weibull", 2.5, 3.0),
          ("weibull", 3.0, 10.0), ("double-exp", None, 20.0)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module", params=TABLES,
                ids=[f"{d}-{k}-a{a}" for d, k, a in TABLES])
def table(request):
    kind, k, a = request.param
    d = exdev.weibull(k) if kind == "weibull" else exdev.double_exp()
    return sampler_tilted(tilt_to_mean(d, a))


def _special_points(table):
    """0, every knot and its neighbours, points in every wide bucket, the
    largest double below 1, and 1."""
    F = table.F
    near = np.concatenate([F, np.nextafter(F, 2.0), np.nextafter(F, -1.0)])
    wide = np.flatnonzero(table.wide)
    in_wide = ((wide[:, None] + np.linspace(0.0, 1.0, 17)[:-1])
               / GUIDE_BUCKETS).ravel()
    return np.clip(np.concatenate([[0.0], near, in_wide,
                                   [np.nextafter(1.0, 0.0), 1.0]]), 0.0, 1.0)


def test_table_has_wide_buckets(table):
    # the fallback path is exercised by the tests below
    assert table.wide.any()
    assert table.F[0] == 0.0 and table.F[-1] == 1.0


def _pchip_c(F, x):
    """scipy's PCHIP coefficients, with the +0.0 its PPoly sum starts at."""
    c = PchipInterpolator(F, x).c.copy()
    c[3] += 0.0
    return c


def test_coefficients_are_scipys_pchip(table):
    np.testing.assert_array_equal(_bits(table.c),
                                  _bits(_pchip_c(table.F, table.x)))


def test_pchip_port_on_non_monotone_data():
    # tables only ever hold increasing x, but the port keeps every branch of
    # scipy's slopes: zero and sign-changing secants, and both end-slope
    # fixes (0 where the estimate's sign flips, 3 m0 where it overshoots)
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 30))
        F = np.cumsum(rng.random(n) + 1e-3) * rng.choice([1e-9, 1.0, 1e6])
        x = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3])
        x[rng.random(n) < 0.2] = 0.0
        np.testing.assert_array_equal(_bits(tables._pchip_coefficients(F, x)),
                                      _bits(_pchip_c(F, x)))


@pytest.mark.parametrize("kind, k, a", TABLES + [("weibull", 1.5, 1e16)])
def test_window_ends_where_the_density_falls_by_tail_drop(kind, k, a,
                                                          monkeypatch):
    # each cut lies within 1e-12 of the mean, relative, from a root of
    # log f(x) = log f(mean) - TAIL_DROP, or is 0 when the density is above
    # that level within STEP_TOL of the origin
    d = exdev.weibull(k) if kind == "weibull" else exdev.double_exp()
    td = tilt_to_mean(d, a)
    window = []
    knot_layout = tables._knot_layout

    def layout(peak, scale, lo, hi, knots):
        window.extend((lo, hi))
        return knot_layout(peak, scale, lo, hi, knots)

    monkeypatch.setattr(tables, "_knot_layout", layout)
    assert sampler_tilted(td).x[0] == window[0]
    cut = float(td.log_pdf(td.m)) - tables.TAIL_DROP
    assert window[0] < td.m < window[1]
    for x, side in zip(window, (1.0, -1.0)):
        if x == 0.0:
            assert td.log_pdf(STEP_TOL * td.m) >= cut
        else:
            tol = side * 1e-12 * max(x, td.m)
            assert td.log_pdf(x - tol) < cut < td.log_pdf(x + tol)


def test_ppf_matches_pchip_at_special_points(table):
    ref = PchipInterpolator(table.F, table.x)
    u = _special_points(table)
    np.testing.assert_array_equal(_bits(table.ppf(u)), _bits(ref(u)))


@pytest.mark.parametrize("count", [0, 1, BLOCK + 3])
def test_sample_matches_pchip_on_uniforms(table, count):
    ref = PchipInterpolator(table.F, table.x)
    draws = table.sample(count, np.random.default_rng(7))
    u = np.random.default_rng(7).random(count)
    assert draws.shape == (count,)
    np.testing.assert_array_equal(_bits(draws), _bits(table.ppf(u)))
    np.testing.assert_array_equal(_bits(draws), _bits(ref(u)))


def test_ppf_shapes_clipping_and_nan(table):
    ref = PchipInterpolator(table.F, table.x)
    assert isinstance(table.ppf(0.5), float)
    assert table.ppf(0.5) == ref(0.5)
    assert table.ppf(-0.25) == table.x[0]
    assert table.ppf(1.5) == ref(1.0)
    u = np.random.default_rng(3).random((3, 5)).T  # not C-contiguous
    np.testing.assert_array_equal(_bits(table.ppf(u)), _bits(ref(u)))
    out = table.ppf(np.array([0.25, np.nan, 0.75]))
    assert np.isnan(out[1])
    np.testing.assert_array_equal(_bits(out[[0, 2]]),
                                  _bits(ref([0.25, 0.75])))


def test_sample_into_out_matches_fresh_draws(table):
    buf = np.full(BLOCK + 3, np.nan)
    got = table.sample(buf.size, np.random.default_rng(8), out=buf)
    assert got is buf
    np.testing.assert_array_equal(
        _bits(buf), _bits(table.sample(buf.size, np.random.default_rng(8))))
    with pytest.raises(ValueError):
        table.sample(4, np.random.default_rng(8), out=buf)


@pytest.mark.parametrize("n", [1, 10, 256, BLOCK + 5])
def test_row_blocks_are_rows_of_one_draw(table, n):
    step = max(BLOCK // n, 1)
    rows = 2 * step + 3 if step > 1 else 3
    blocks = []
    for block in table.row_blocks(n, np.random.default_rng(9), rows):
        assert block.shape[1] == n and block.size <= max(BLOCK, n)
        blocks.append(block.copy())
    ref = table.sample(rows * n, np.random.default_rng(9)).reshape(rows, n)
    np.testing.assert_array_equal(_bits(np.concatenate(blocks)), _bits(ref))
    # without a row count the stream goes on, with the same leading rows
    endless = table.row_blocks(n, np.random.default_rng(9))
    head = np.concatenate([b.copy() for b in itertools.islice(endless, 2)])
    np.testing.assert_array_equal(_bits(head), _bits(ref[:head.shape[0]]))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 10, 256, BLOCK + 5])
def test_row_blocks_on_workers_are_rows_of_one_draw(table, n, workers):
    step = max(BLOCK // n, 1)
    rows = 5 * step + 3 if step > 1 else 5  # not a multiple of the block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the filling threads finely
    try:
        got = np.concatenate(list(table.row_blocks(
            n, np.random.default_rng(9), rows, workers=workers)))
    finally:
        sys.setswitchinterval(interval)
    ref = table.sample(rows * n, np.random.default_rng(9)).reshape(rows, n)
    np.testing.assert_array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_closed_stream_leaves_rng_past_the_rows_yielded(table, workers):
    n = 10
    rng, ref = np.random.default_rng(10), np.random.default_rng(10)
    # a 32-bit draw caches the other half of its 64-bit output
    assert rng.integers(1000, dtype=np.int32) == ref.integers(
        1000, dtype=np.int32)
    stream = table.row_blocks(n, rng, workers=workers)
    head = np.concatenate(list(itertools.islice(stream, 2)))
    stream.close()
    np.testing.assert_array_equal(
        _bits(head), _bits(table.sample(head.size, ref).reshape(-1, n)))
    assert rng.random() == ref.random()
    assert rng.integers(1000, dtype=np.int32) == ref.integers(
        1000, dtype=np.int32)


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox])
def test_row_blocks_without_draw_counted_advance_are_sequential(table,
                                                                bitgen):
    # MT19937 has no advance and Philox's counts blocks of four draws
    rows = 3 * BLOCK // 10 + 1
    got = np.concatenate(list(table.row_blocks(
        10, np.random.Generator(bitgen(11)), rows, workers=2)))
    ref = table.sample(rows * 10, np.random.Generator(bitgen(11)))
    np.testing.assert_array_equal(_bits(got), _bits(ref.reshape(rows, 10)))


GATHER_TABLES = TABLES + [("weibull", 2.5, 1e5), ("weibull", 1.5, 1.5),
                          ("double-exp", None, 1.5)]


@pytest.mark.parametrize("kind,k,a", GATHER_TABLES,
                         ids=[f"{d}-{k}-a{a}" for d, k, a in GATHER_TABLES])
def test_gather_indices_never_clip(kind, k, a):
    # the kernel gathers with mode="clip": an index that would clip gives a
    # silent wrong draw, so every index must be in range by construction
    d = exdev.weibull(k) if kind == "weibull" else exdev.double_exp()
    tb = sampler_tilted(tilt_to_mean(d, a))
    assert tb.guide.size == GUIDE_BUCKETS + 2
    assert tb.wide.size == GUIDE_BUCKETS + 1
    assert tb.guide.min() >= 0 and tb.guide.max() <= tb.F.size - 2
    assert tb.F_next[-1] == np.inf
    np.testing.assert_array_equal(tb.F_next[:-1], tb.F[1:-1])
    assert tb.c.shape == (4, tb.F.size - 1)
